"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``generate``   write one of the built-in datasets to CSV/JSON files.
``stats``      print structural statistics of a dataset.
``evaluate``   run the paper's evaluation protocol for one system.
``match``      train on chosen sources and emit scored matches as CSV;
               ``--add-source`` ingests an extra source incrementally
               through ``Matcher.with_source``.
``features``   ``features describe`` prints the stage graph and the
               resolved column schema per feature configuration.
``describe``   post-mortem summary of a journal (run, ingestion or
               registry; the flavour is sniffed from the header line).
``serve``      ``--follow DIR`` fuses new source CSVs into matches and
               clusters as they arrive, crash-safely (see repro.ingest);
               ``--http`` runs the long-lived multi-tenant matching
               service (see repro.serve); both together share one
               process and one drain signal.
``lint``       invariant-enforcing static analysis (see repro.analysis).

The CLI works on the built-in domains (``--dataset cameras`` ...) or on
user data (``--instances file.csv [--alignment file.csv]``).
"""

from __future__ import annotations

import argparse
import csv
import sys
import threading
from pathlib import Path

import numpy as np

from repro.analysis.cli import add_lint_arguments, run_lint
from repro.blocking import CandidatePolicy
from repro.core import FeatureConfig, LeapmeMatcher
from repro.core.api import Matcher
from repro.core.pipeline import (
    disable_persistent_distances,
    enable_persistent_distances,
    flush_persistent_distances,
)
from repro.data.csvio import load_dataset_csv, save_dataset_csv
from repro.data.io import save_dataset_json
from repro.data.model import Dataset
from repro.data.pairs import PairSet, sample_training_pairs
from repro.data.stats import dataset_stats
from repro.datasets import DATASET_NAMES, build_domain_embeddings, load_dataset
from repro.embeddings.hashing import hash_embeddings
from repro.errors import GridInterrupted, ReproError
from repro.evaluation import (
    ExperimentRunner,
    RetryPolicy,
    RunJournal,
    SupervisorPolicy,
    render_robustness_report,
)
from repro.ingest import FollowDaemon, IngestJournal, IngestPipeline
from repro.ingest.journal import INGEST_JOURNAL_TYPE
from repro.ioutils import atomic_open_text
from repro.journal import peek_journal_type
from repro.serve import (
    REGISTRY_JOURNAL_TYPE,
    AdmissionQueue,
    MatchingService,
    RegistryJournal,
    TenantRegistry,
)
from repro.systems import (
    HASH_DIMENSION,
    SYSTEMS,
    build_system_matcher,
    fallback_embeddings,
)


def _load_cli_dataset(args: argparse.Namespace) -> Dataset:
    """Resolve the dataset from either --dataset or --instances."""
    if args.dataset is not None:
        return load_dataset(args.dataset, scale=args.scale, seed=args.seed)
    if args.instances is None:
        raise ReproError("pass either --dataset <name> or --instances <csv>")
    return load_dataset_csv(args.instances, args.alignment)


def _embeddings_for(dataset: Dataset, args: argparse.Namespace):
    """Built-in domains get trained embeddings; user data gets hashing.

    Hash embeddings carry no synonym semantics -- users with real data
    should train or load real embeddings through the library API; the CLI
    fallback keeps the pipeline runnable out of the box.
    """
    if args.dataset is not None:
        return build_domain_embeddings(args.dataset, scale=args.scale)
    print(
        "note: using semantics-free hash embeddings for user data; "
        "see repro.embeddings to train real ones",
        file=sys.stderr,
    )
    return fallback_embeddings(dataset)


def _cli_policy(args: argparse.Namespace) -> CandidatePolicy:
    """Resolve ``--blocking`` into a candidate policy (null when unset)."""
    return CandidatePolicy.from_label(getattr(args, "blocking", None))


def _build_matcher(
    system: str, embeddings, policy: CandidatePolicy | None = None
) -> Matcher:
    """Construct the matcher for ``system`` (shared with repro.serve)."""
    return build_system_matcher(system, embeddings, policy)


def _cmd_generate(args: argparse.Namespace) -> int:
    dataset = load_dataset(args.dataset, scale=args.scale, seed=args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_dataset_csv(
        dataset, out / "instances.csv", out / "alignment.csv"
    )
    save_dataset_json(dataset, out / "dataset.json")
    print(dataset_stats(dataset).describe())
    print(f"written to {out}/instances.csv, alignment.csv, dataset.json")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    dataset = _load_cli_dataset(args)
    stats = dataset_stats(dataset)
    print(stats.describe())
    print(f"  reference properties: {stats.n_reference_properties}")
    print(f"  entities/source: {stats.min_entities_per_source}"
          f"..{stats.max_entities_per_source} (balance {stats.entity_balance:.2f})")
    for source in dataset.sources():
        print(f"  {source}: {len(dataset.schema_of(source))} properties, "
              f"{len(dataset.entities(source))} entities")
    if dataset.validation:
        dropped = dataset.rows_dropped()
        per_source = ", ".join(f"{k}={v}" for k, v in sorted(dropped.items()))
        print(f"  rows quarantined on load: {len(dataset.validation)} ({per_source})")
        for record in dataset.validation[:5]:
            print(f"    {record.describe()}")
        if len(dataset.validation) > 5:
            print(f"    ... and {len(dataset.validation) - 5} more")
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    if args.resume and args.journal is None:
        raise ReproError("--resume requires --journal <path>")
    dataset = _load_cli_dataset(args)
    embeddings = _embeddings_for(dataset, args)
    policy = _cli_policy(args)
    journal = RunJournal(args.journal) if args.journal is not None else None
    # A one-cell grid; the factory key is the matcher's own name, so it
    # labels the result and keys the journal cell.
    name = _build_matcher(args.system, embeddings, policy).name
    runner = ExperimentRunner(
        {name: lambda: _build_matcher(args.system, embeddings, policy)}
    )
    result = runner.run(
        [dataset],
        train_fractions=[args.train_fraction],
        repetitions=args.repetitions,
        seed=args.seed,
        journal=journal,
        resume=args.resume,
        retry_policy=RetryPolicy(max_retries=args.max_retries),
        workers=args.workers,
        supervisor=SupervisorPolicy(
            cell_timeout=args.cell_timeout,
            max_pool_respawns=args.max_pool_respawns,
        ),
        policy=policy,
    )[0]
    print(result.describe())
    report = render_robustness_report([result])
    if report:
        print(report)
    if journal is not None:
        print(f"journal: {journal.path}"
              + (" (resumed)" if result.resumed_repetitions else ""))
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    return run_lint(args)


def _cmd_describe(args: argparse.Namespace) -> int:
    path = Path(args.journal)
    if not path.exists():
        raise ReproError(f"journal not found: {path}")
    # The header line names the journal flavour; dispatch on it so one
    # describe command serves run, ingestion and registry journals alike.
    journal_type = peek_journal_type(path)
    if journal_type == INGEST_JOURNAL_TYPE:
        print(IngestJournal(path).describe())
    elif journal_type == REGISTRY_JOURNAL_TYPE:
        print(RegistryJournal(path).describe())
    else:
        print(RunJournal(path).describe())
    return 0


def _distance_cache_path(args: argparse.Namespace, default: Path) -> Path | None:
    """Resolve --distance-cache: ``off`` disables, unset means ``default``."""
    raw = getattr(args, "distance_cache", None)
    if raw is None:
        return default
    if raw == "off":
        return None
    return Path(raw)


def _build_follow_daemon(
    args: argparse.Namespace, stop_event: threading.Event | None = None
) -> tuple[FollowDaemon, Path, Path]:
    """The follow-mode pipeline + daemon; shared by both serve modes."""
    follow = Path(args.follow)
    follow.mkdir(parents=True, exist_ok=True)
    base = None
    if args.dataset is not None or args.instances is not None:
        base = _load_cli_dataset(args)
    if base is not None:
        embeddings = _embeddings_for(base, args)
    else:
        # No bootstrap data yet: hashing embeddings need no corpus, and
        # unknown streamed tokens embed as zero vectors either way.
        embeddings = hash_embeddings([], dimension=HASH_DIMENSION)
    matcher = _build_matcher(args.system, embeddings, _cli_policy(args))
    out = Path(args.out) if args.out else follow / "matches.csv"
    clusters = Path(args.clusters) if args.clusters else follow / "clusters.json"
    journal_path = Path(args.journal) if args.journal else follow / "ingest.journal"
    args.journal = str(journal_path)  # the interrupt handler's resume hint
    pipeline = IngestPipeline(
        matcher,
        matches_path=out,
        clusters_path=clusters,
        threshold=args.threshold,
        seed=args.seed,
    )
    pipeline.bootstrap(base)
    daemon = FollowDaemon(
        follow,
        pipeline,
        IngestJournal(journal_path),
        poll_interval=args.poll_interval,
        settle_polls=args.settle_polls,
        retry_policy=RetryPolicy(
            max_retries=args.max_retries, backoff_base=args.backoff, jitter=0.5
        ),
        seed=args.seed,
        stop_event=stop_event,
    )
    return daemon, out, clusters


def _enable_distance_cache(args: argparse.Namespace, default: Path) -> None:
    cache_path = _distance_cache_path(args, default)
    if cache_path is None:
        return
    cache = enable_persistent_distances(cache_path)
    if cache.loaded_entries:
        print(
            f"distance cache: {cache.loaded_entries} pair(s) "
            f"loaded from {cache_path}",
            file=sys.stderr,
        )


def _serve_follow(args: argparse.Namespace) -> int:
    _enable_distance_cache(args, Path(args.follow) / "distance_cache.npz")
    try:
        daemon, out, clusters = _build_follow_daemon(args)
        print(
            f"following {args.follow} (journal {args.journal})", file=sys.stderr
        )
        summary = daemon.run(
            resume=args.resume,
            max_batches=args.max_batches,
            max_idle_polls=args.max_idle_polls,
        )
    finally:
        # Whatever got the daemon out of its loop -- clean exit, signal,
        # error -- rows computed so far are worth keeping for the next
        # process.  A no-op when nothing is dirty or no cache is wired.
        flush_persistent_distances()
        disable_persistent_distances()
    print(
        f"served {summary['fused']} batch(es) "
        f"({summary['replayed']} replayed on resume, "
        f"{summary['quarantined']} quarantined) over {summary['polls']} polls"
    )
    print(f"matches: {out}")
    print(f"clusters: {clusters}")
    return 0


def _serve_http(args: argparse.Namespace) -> int:
    """The long-lived matching service, optionally composing --follow.

    The registry always replays its journal first, so the same command
    line warm-restarts a SIGKILLed server into its previous tenant set.
    With ``--follow`` the ingestion daemon runs on a background thread
    sharing the service's stop event: one SIGTERM drains both loops.
    """
    registry_journal = (
        Path(args.registry_journal) if args.registry_journal
        else Path("registry.journal")
    )
    _enable_distance_cache(
        args, registry_journal.with_name("distance_cache.npz")
    )
    try:
        registry = TenantRegistry(
            RegistryJournal(registry_journal),
            breaker_threshold=args.breaker_threshold,
        )
        replay = registry.load()
        if replay["tenants"]:
            print(
                f"warm restart: {replay['tenants']} tenant(s) rebuilt, "
                f"{replay['sources']} reload(s) replayed, "
                f"{replay['quarantined']} quarantined",
                file=sys.stderr,
            )
        admission = AdmissionQueue(
            max_active=args.max_active,
            max_waiting=args.max_waiting,
            request_deadline=args.request_deadline,
            seed=args.seed,
        )
        service = MatchingService(
            registry,
            admission,
            host=args.host,
            port=args.port,
            drain_grace=args.drain_grace,
        )
        follow_thread = None
        if args.follow:
            daemon, _, _ = _build_follow_daemon(
                args, stop_event=service.stop_event
            )

            def _run_follow() -> None:
                try:
                    daemon.run(
                        resume=args.resume,
                        max_batches=args.max_batches,
                        max_idle_polls=args.max_idle_polls,
                    )
                except GridInterrupted:
                    pass  # the shared stop event drained it; normal exit
                except ReproError as error:
                    print(f"follow loop error: {error}", file=sys.stderr)

            follow_thread = threading.Thread(
                target=_run_follow, name="repro-serve-follow", daemon=True
            )
            follow_thread.start()
            print(f"following {args.follow} alongside HTTP", file=sys.stderr)
        print(
            f"serving on {service.address} "
            f"(registry journal {registry_journal})",
            file=sys.stderr,
        )
        try:
            service.serve_until_signalled()
        finally:
            if follow_thread is not None:
                follow_thread.join(args.drain_grace)
    finally:
        flush_persistent_distances()
        disable_persistent_distances()
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    if args.http:
        return _serve_http(args)
    if not args.follow:
        raise ReproError("pass --follow <dir>, --http, or both")
    return _serve_follow(args)


def _cmd_features_describe(args: argparse.Namespace) -> int:
    from repro.core.pipeline import FeatureSchema, describe_stages

    if args.config == "all":
        configs = FeatureConfig.grid()
    else:
        configs = [FeatureConfig.from_label(args.config)]
    schema = FeatureSchema(args.dimension)
    print(describe_stages(args.dimension))
    print(f"\nfull matrix: {schema.total_width} columns at d={args.dimension}")
    for config in configs:
        print()
        print(schema.describe(config))
    return 0


def _cmd_match(args: argparse.Namespace) -> int:
    dataset = _load_cli_dataset(args)
    embeddings = _embeddings_for(dataset, args)
    policy = _cli_policy(args)
    matcher = _build_matcher(args.system, embeddings, policy)
    if args.add_source is not None:
        return _match_with_added_source(args, dataset, matcher)
    rng = np.random.default_rng(args.seed)
    matcher.prepare(dataset)
    # Every pair set -- training slices and test slices alike -- is a
    # slice of the matcher's candidates: for LEAPME the rows of its
    # store's universe (element-identical to build_pairs under the null
    # policy, the pruned candidates under a blocking one).
    if matcher.is_supervised:
        train_sources = (
            args.train_sources.split(",") if args.train_sources else dataset.sources()
        )
        training = sample_training_pairs(
            matcher.candidates(dataset, train_sources), rng=rng
        )
        if not training.labels().any():
            raise ReproError(
                "no positive training pairs in the chosen sources; "
                "provide an alignment file or pick other --train-sources"
            )
        matcher.fit(dataset, training)
        if set(train_sources) == set(dataset.sources()):
            # Integration mode: trained on everything, score everything.
            test = matcher.candidates(dataset)
        else:
            test = matcher.candidates(dataset, train_sources, within=False)
    else:
        test = matcher.candidates(dataset)
    scores = matcher.score_pairs(dataset, test)
    kept = _write_matches(args.out, test, scores, args.threshold)
    _print_blocking_stats(matcher)
    print(f"{kept} matches (of {len(test)} candidate pairs) written to {args.out}")
    return 0


def _print_blocking_stats(matcher: Matcher) -> None:
    """Report a blocked LEAPME store's candidate counts on stderr."""
    store = matcher.store if isinstance(matcher, LeapmeMatcher) else None
    if store is not None and store.universe.is_blocked:
        stats = store.universe.blocking_stats()
        print(
            f"blocking {stats['policy']}: {stats['candidates']} of "
            f"{stats['total_pairs']} cross-source pairs kept "
            f"(reduction {stats['reduction_ratio']:.2%}, "
            f"pair recall {stats['pair_recall']:.2%})",
            file=sys.stderr,
        )


def _write_matches(out: str, pairs: PairSet, scores, threshold: float) -> int:
    """Write scored pairs above ``threshold`` as a matches CSV; count kept."""
    kept = np.flatnonzero(scores >= threshold)
    # Atomic: a crash mid-write must not leave a truncated matches file
    # that looks complete (REP002).
    with atomic_open_text(out, newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(
            ["left_source", "left_property", "right_source", "right_property", "score"]
        )
        for left, right, score in zip(*pairs.sides(kept), scores[kept]):
            writer.writerow(
                [left.source, left.name, right.source, right.name, f"{score:.4f}"]
            )
    return len(kept)


def _match_with_added_source(
    args: argparse.Namespace, dataset: Dataset, matcher: Matcher
) -> int:
    """Incremental ingestion: fit on the base dataset (supervised systems
    only), add one new source, and emit matches for the *new* candidate
    pairs only.

    :meth:`Matcher.with_source` is the add-source path the service and
    follow mode share; for LEAPME it recomputes only the new source's
    property rows and the new pairs, and everything already featurized
    is served from the pipeline's fingerprint-keyed cache.
    """
    addition = load_dataset_csv(args.add_source, args.add_alignment)
    cache_path = _distance_cache_path(
        args, Path(args.out).with_name("distance_cache.npz")
    )
    if cache_path is not None:
        cache = enable_persistent_distances(cache_path)
        if cache.loaded_entries:
            print(
                f"distance cache: {cache.loaded_entries} pair(s) "
                f"loaded from {cache_path}",
                file=sys.stderr,
            )
    pipeline = getattr(matcher, "pipeline", None)
    try:
        if matcher.is_supervised:
            rng = np.random.default_rng(args.seed)
            training = sample_training_pairs(matcher.candidates(dataset), rng=rng)
            if not training.labels().any():
                raise ReproError(
                    "no positive training pairs in the base dataset; "
                    "provide an alignment file"
                )
            matcher.fit(dataset, training)
        calls_before = dict(getattr(pipeline, "stage_calls", {}))
        grown, combined, new_pairs = matcher.with_source(dataset, addition)
        delta = {
            stage: count - calls_before.get(stage, 0)
            for stage, count in getattr(pipeline, "stage_calls", {}).items()
            if count - calls_before.get(stage, 0)
        }
        scores = grown.score_pairs(combined, new_pairs)
    finally:
        flush_persistent_distances()
        disable_persistent_distances()
    kept = _write_matches(args.out, new_pairs, scores, args.threshold)
    _print_blocking_stats(grown)
    print(
        f"added {len(addition.sources())} source(s): "
        f"{len(addition.properties())} new properties, "
        f"{len(new_pairs)} new candidate pairs"
    )
    if pipeline is not None:
        print("stage calls for the increment: "
              + ", ".join(f"{stage}={count}" for stage, count in sorted(delta.items())))
    print(f"{kept} matches (of {len(new_pairs)} new pairs) written to {args.out}")
    return 0


def _add_dataset_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--dataset", choices=DATASET_NAMES, default=None,
                        help="built-in dataset name")
    parser.add_argument("--instances", default=None, help="instances CSV for user data")
    parser.add_argument("--alignment", default=None, help="alignment CSV (ground truth)")
    parser.add_argument("--scale", default="small", help="built-in dataset scale preset")
    parser.add_argument("--seed", type=int, default=0)


def _add_blocking_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--blocking", default=None, metavar="POLICY",
        help="candidate-generation policy for LEAPME systems: 'null' "
             "(default; every cross-source pair), 'minhash' (name/value "
             "sketch buckets), 'token', or 'embedding' (LSH over "
             "embedding vectors); parameters attach as "
             "'minhash:num_hashes=32,band_size=1'")


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro", description="LEAPME property matching (ICDE 2021 reproduction)"
    )
    commands = parser.add_subparsers(dest="command", required=True)

    generate = commands.add_parser("generate", help="write a built-in dataset to files")
    generate.add_argument("--dataset", choices=DATASET_NAMES, required=True)
    generate.add_argument("--scale", default="small")
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument("--out", required=True, help="output directory")
    generate.set_defaults(handler=_cmd_generate)

    stats = commands.add_parser("stats", help="print dataset statistics")
    _add_dataset_arguments(stats)
    stats.set_defaults(handler=_cmd_stats)

    evaluate = commands.add_parser("evaluate", help="run the paper's protocol")
    _add_dataset_arguments(evaluate)
    _add_blocking_argument(evaluate)
    evaluate.add_argument("--system", choices=SYSTEMS, default="leapme")
    evaluate.add_argument("--train-fraction", type=float, default=0.8)
    evaluate.add_argument("--repetitions", type=int, default=3)
    evaluate.add_argument("--journal", default=None, metavar="PATH",
                          help="append per-repetition outcomes to this JSONL run "
                               "journal as they complete")
    evaluate.add_argument("--resume", action="store_true",
                          help="reuse completed repetitions from --journal instead "
                               "of re-running them")
    evaluate.add_argument("--max-retries", type=int, default=1,
                          help="retries per failing repetition before it is "
                               "recorded as failed (default 1)")
    evaluate.add_argument("--workers", type=int, default=1,
                          help="worker processes for the repetition grid; "
                               "results are byte-identical to --workers 1 "
                               "(default 1)")
    evaluate.add_argument("--cell-timeout", type=float, default=None,
                          metavar="SECONDS",
                          help="wall-clock deadline per (cell, repetition) "
                               "(pair build, fit and score); a work item that "
                               "runs k cells on one source split gets k "
                               "deadlines; needs --workers >= 2: a hung item "
                               "is killed, re-dispatched, and its cells "
                               "quarantined if it keeps timing out "
                               "(default: no deadline)")
    evaluate.add_argument("--max-pool-respawns", type=int, default=5,
                          help="worker-pool deaths tolerated before the grid "
                               "degrades to serial in-process execution "
                               "(default 5)")
    evaluate.set_defaults(handler=_cmd_evaluate)

    describe = commands.add_parser(
        "describe",
        help="summarise a run, ingestion or registry journal (post-mortem)",
    )
    describe.add_argument("--journal", required=True, metavar="PATH",
                          help="JSONL journal to summarise (run, ingestion "
                               "and registry journals are all understood)")
    describe.set_defaults(handler=_cmd_describe)

    serve = commands.add_parser(
        "serve",
        help="follow a directory (--follow), run the long-lived HTTP "
             "matching service (--http), or both in one process",
    )
    _add_dataset_arguments(serve)
    _add_blocking_argument(serve)
    serve.add_argument("--follow", default=None, metavar="DIR",
                       help="directory to watch; drop source CSVs (and "
                            "optional X.alignment.csv sidecars) here")
    serve.add_argument("--http", action="store_true",
                       help="run the multi-tenant HTTP matching service; "
                            "warm-restarts from --registry-journal into "
                            "the previous tenant set")
    serve.add_argument("--host", default="127.0.0.1",
                       help="HTTP bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8571,
                       help="HTTP port; 0 binds an ephemeral port "
                            "(default 8571)")
    serve.add_argument("--registry-journal", default=None, metavar="PATH",
                       help="crash-safe tenant lifecycle journal "
                            "(default: ./registry.journal); reuse the same "
                            "path across restarts to warm-restart")
    serve.add_argument("--max-active", type=int, default=4,
                       help="concurrent requests executing (default 4)")
    serve.add_argument("--max-waiting", type=int, default=8,
                       help="requests queued beyond --max-active before "
                            "load shedding with 429 + Retry-After "
                            "(default 8; memory use is bounded by this)")
    serve.add_argument("--request-deadline", type=float, default=30.0,
                       metavar="SECONDS",
                       help="admission deadline per request; a request "
                            "that cannot start in time gets 503 "
                            "(default 30)")
    serve.add_argument("--drain-grace", type=float, default=10.0,
                       metavar="SECONDS",
                       help="seconds in-flight requests get to finish "
                            "after SIGINT/SIGTERM (default 10)")
    serve.add_argument("--breaker-threshold", type=int, default=3,
                       help="consecutive request failures before a tenant "
                            "is quarantined (default 3)")
    serve.add_argument("--system", choices=SYSTEMS, default="leapme",
                       help="matching system; supervised systems need a "
                            "bootstrap dataset (--dataset/--instances) to "
                            "train on")
    serve.add_argument("--threshold", type=float, default=0.5)
    serve.add_argument("--out", default=None, metavar="CSV",
                       help="matches CSV, atomically rewritten after every "
                            "fused batch (default: <follow>/matches.csv)")
    serve.add_argument("--clusters", default=None, metavar="JSON",
                       help="property-cluster JSON, atomically rewritten "
                            "after every fused batch "
                            "(default: <follow>/clusters.json)")
    serve.add_argument("--journal", default=None, metavar="PATH",
                       help="ingestion journal recording every source "
                            "lifecycle transition "
                            "(default: <follow>/ingest.journal)")
    serve.add_argument("--resume", action="store_true",
                       help="replay the journal's fused sources before "
                            "following again; outputs are bit-identical to "
                            "a cold rebuild over the same sources")
    serve.add_argument("--poll-interval", type=float, default=0.5,
                       metavar="SECONDS",
                       help="directory poll cadence (default 0.5); SIGTERM "
                            "cuts the wait short")
    serve.add_argument("--settle-polls", type=int, default=2,
                       help="polls a file's size+fingerprint must hold "
                            "still before it is admitted (default 2); "
                            "partially-written CSVs are never read")
    serve.add_argument("--max-retries", type=int, default=2,
                       help="retries per failing source before it is "
                            "quarantined (default 2)")
    serve.add_argument("--backoff", type=float, default=0.1,
                       metavar="SECONDS",
                       help="base backoff between retries, doubling per "
                            "attempt with deterministic jitter (default 0.1)")
    serve.add_argument("--max-batches", type=int, default=None, metavar="N",
                       help="exit after fusing N new batches (default: run "
                            "until signalled)")
    serve.add_argument("--max-idle-polls", type=int, default=None, metavar="N",
                       help="exit after N consecutive polls with nothing to "
                            "do (default: run until signalled)")
    serve.add_argument("--distance-cache", default=None, metavar="NPZ",
                       help="persistent name-distance kernel cache, flushed "
                            "atomically after every fused batch so warm "
                            "restarts never recompute a seen pair "
                            "(default: <follow>/distance_cache.npz; "
                            "'off' disables)")
    serve.set_defaults(handler=_cmd_serve)

    lint = commands.add_parser(
        "lint",
        help="static analysis enforcing the repo's determinism/atomicity/"
             "fork-safety invariants",
    )
    add_lint_arguments(lint)
    lint.set_defaults(handler=_cmd_lint)

    match = commands.add_parser("match", help="score pairs and emit matches as CSV")
    _add_dataset_arguments(match)
    _add_blocking_argument(match)
    match.add_argument("--system", choices=SYSTEMS, default="leapme")
    match.add_argument("--train-sources", default=None,
                       help="comma-separated sources to train on (default: all)")
    match.add_argument("--threshold", type=float, default=0.5)
    match.add_argument("--out", required=True, help="output matches CSV")
    match.add_argument("--add-source", default=None, metavar="CSV",
                       help="instances CSV of one or more NEW sources to "
                            "ingest incrementally: train on the base "
                            "dataset (supervised systems), delta-featurize "
                            "only the new properties/pairs, and emit "
                            "matches for the new pairs")
    match.add_argument("--add-alignment", default=None, metavar="CSV",
                       help="alignment CSV for --add-source (optional)")
    match.add_argument("--distance-cache", default=None, metavar="NPZ",
                       help="persistent name-distance kernel cache for "
                            "--add-source: repeated ingestions against the "
                            "same base skip every already-seen pair "
                            "(default: distance_cache.npz next to --out; "
                            "'off' disables)")
    match.set_defaults(handler=_cmd_match)

    features = commands.add_parser(
        "features", help="inspect the staged feature pipeline"
    )
    features_commands = features.add_subparsers(
        dest="features_command", required=True
    )
    features_describe = features_commands.add_parser(
        "describe",
        help="print the stage graph and the resolved column schema",
    )
    features_describe.add_argument(
        "--config", default="all",
        help="a scope/kinds label (e.g. both/embedding) or 'all' (default)")
    features_describe.add_argument(
        "--dimension", type=int, default=300,
        help="embedding dimensionality the schema is resolved at "
             "(default 300, the paper's GloVe)")
    features_describe.set_defaults(handler=_cmd_features_describe)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except GridInterrupted as interrupted:
        # Clean signal shutdown: the journal already holds the completed
        # prefix, so the natural next step is a --resume rerun.
        print(
            f"interrupted: {interrupted}",
            file=sys.stderr,
        )
        if getattr(args, "journal", None):
            print(
                f"resume with: --journal {args.journal} --resume",
                file=sys.stderr,
            )
        return 128 + (interrupted.signum or 15)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
