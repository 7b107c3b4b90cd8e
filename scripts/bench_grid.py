"""Benchmark the evaluation engine: in-process grid vs process-pool grid.

Runs the paper's 9-config feature grid twice over a bundled synthetic
dataset through the one grid engine, both times over one shared pair
universe and pair-feature store:

* **serial** -- ``workers=1``: the engine runs every item in this
  process;
* **engine** -- the same engine on a process pool (``workers=N``).

Both runs produce the exact same aggregates (asserted, and recorded in
the output), so the wall-clock ratio is a pure like-for-like speedup.

Methodology notes:

* An untimed warm-up primes the name-distance cache for all universe
  pairs.  Both modes share that module-level cache (the seed used an
  equally persistent ``lru_cache``), so timing from a warm start
  measures the steady state of a long grid instead of a one-time cost
  both modes pay identically.
* The network defaults to a small benchmark configuration
  (``--network light``) so the measurement isolates the evaluation
  engine -- pair enumeration and feature assembly -- rather than NN
  training, which is identical work in both modes.  Pass
  ``--network paper`` for the paper's full network; on a single-CPU
  host training then dominates and the ratio shrinks accordingly.
* The default train fractions are the paper's ``0.2 0.8``.  On a
  10-source dataset they train on 2 and 8 sources, so the two halves
  of the grid are distinct experiments (0.1 and 0.2 both round to 2
  sources and would repeat the same splits).

Writes ``BENCH_grid.json``::

    {"dataset": ..., "grid": {...},
     "serial":  {"wall_clock": ..., "phases": {...}},
     "engine":  {"wall_clock": ..., "phases": {...}, "workers": N},
     "speedup": ..., "aggregates_identical": true}

``--features`` switches to the featurization micro-benchmark instead:
the staged float32 pipeline (PR 5) vs an inline re-creation of the
legacy monolithic float64 featurizer, each measured in its own forked
child so wall-clock, stage-level timings and peak RSS are isolated per
variant.  Results merge into the same ``BENCH_grid.json`` under a
``"features"`` key.

``--blocking [POLICY]`` runs the candidate-generation benchmark
(PR 10): the 9-config grid over the full cross product vs the same
grid under a blocking policy (default ``minhash``), reporting the
candidate reduction, the policy's pair recall and the per-cell F1
deltas the pruning costs.  Results merge into ``BENCH_grid.json``
under a ``"blocking"`` key.

``--kernel`` runs the name-distance kernel micro-benchmark (PR 7):
the scalar per-pair reference vs the batched kernel vs the warm
in-process memo vs a persistent-cache reload, over the dataset's real
unique cross-source pairs.  Batched rows are asserted bit-identical to
the scalar reference before any ratio is reported.  Results merge into
``BENCH_grid.json`` under a ``"kernel"`` key.

Usage::

    PYTHONPATH=src python scripts/bench_grid.py [--scale small]
        [--repetitions 10] [--workers 2] [--out BENCH_grid.json]
    PYTHONPATH=src python scripts/bench_grid.py --features [--scale small]
    PYTHONPATH=src python scripts/bench_grid.py --kernel [--scale small]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
from pathlib import Path
from time import perf_counter

import numpy as np

from repro.core import FeatureConfig, LeapmeConfig, LeapmeMatcher
from repro.core.feature_cache import PairFeatureStore, PairUniverse
from repro.core.pipeline import FEATURE_DTYPE, name_distance_block
from repro.datasets import build_domain_embeddings, load_dataset
from repro.evaluation import ExperimentRunner, PhaseTimings
from repro.ioutils import atomic_write_text
from repro.nn.schedule import TrainingSchedule


def _network(kind: str) -> LeapmeConfig | None:
    if kind == "paper":
        return None  # LeapmeMatcher default: the paper's network
    return LeapmeConfig(
        hidden_sizes=(8,), schedule=TrainingSchedule.constant(1, 1e-3)
    )


def _factories(embeddings, network: LeapmeConfig | None) -> dict:
    return {
        config.label(): (
            lambda config=config: LeapmeMatcher(
                embeddings, config, config=network
            )
        )
        for config in FeatureConfig.grid()
    }


def _phase_sum(results) -> PhaseTimings:
    total = PhaseTimings()
    for result in results:
        total.merge(result.timings)
    return total


def _aggregates(results) -> list:
    return [
        (
            r.matcher_name,
            r.dataset_name,
            r.settings.train_fraction,
            [
                (q.true_positives, q.false_positives, q.false_negatives)
                for q in r.qualities
            ],
            r.skipped_repetitions,
        )
        for r in results
    ]


# ---------------------------------------------------------------------------
# Featurization micro-benchmark (--features)
# ---------------------------------------------------------------------------


def _legacy_featurize(dataset, embeddings) -> dict:
    """The seed-era monolithic float64 featurizer, inlined for comparison.

    Recreates exactly what ``PropertyFeatureTable`` + the old
    ``pair_feature_matrix`` did before PR 5: dense float64 property
    tables, then one float64 full-width pair matrix.
    """
    from repro.core.instance_features import NUM_META_FEATURES, instance_meta_matrix

    started = perf_counter()
    refs = dataset.properties()
    dimension = embeddings.dimension
    meta = np.zeros((len(refs), NUM_META_FEATURES))
    value_emb = np.zeros((len(refs), dimension))
    name_emb = np.zeros((len(refs), dimension))
    for i, ref in enumerate(refs):
        values = dataset.values_of(ref)
        if values:
            meta[i] = instance_meta_matrix(values).mean(axis=0)
            total = np.zeros(dimension)
            for value in values:
                total += embeddings.embed_text(value)
            value_emb[i] = total / len(values)
        name_emb[i] = embeddings.embed_text(ref.name)
    property_seconds = perf_counter() - started

    started = perf_counter()
    universe = PairUniverse(dataset)
    pairs = list(universe.pairs)
    row_of = {ref: i for i, ref in enumerate(refs)}
    left = np.array([row_of[pair.left] for pair in pairs])
    right = np.array([row_of[pair.right] for pair in pairs])
    matrix = np.hstack(
        [
            np.abs(meta[left] - meta[right]),
            np.abs(value_emb[left] - value_emb[right]),
            np.abs(name_emb[left] - name_emb[right]),
            name_distance_block(
                [(pair.left.name, pair.right.name) for pair in pairs]
            ),
        ]
    )
    pair_seconds = perf_counter() - started
    return {
        "seconds": round(property_seconds + pair_seconds, 4),
        "stage_seconds": {
            "property_tables": round(property_seconds, 4),
            "pair_assembly": round(pair_seconds, 4),
        },
        "matrix_mb": round(matrix.nbytes / 2**20, 2),
        "dtype": str(matrix.dtype),
        "pairs": len(pairs),
        "properties": len(refs),
    }


def _pipeline_featurize(dataset, embeddings) -> dict:
    """The staged float32 pipeline: build the full-universe store.

    The store holds no pair matrix; ``store_mb`` is its resident tables
    (property rows, name-pair table, universe arrays).
    """
    started = perf_counter()
    store = PairFeatureStore.build(dataset, embeddings)
    seconds = perf_counter() - started
    pipeline = store.pipeline
    return {
        "seconds": round(seconds, 4),
        "stage_seconds": {
            name: round(value, 4)
            for name, value in sorted(pipeline.stage_seconds.items())
        },
        "stage_calls": dict(pipeline.stage_calls),
        "store_mb": round(store.nbytes / 2**20, 2),
        "dtype": np.dtype(FEATURE_DTYPE).name,
        "pairs": len(store.universe),
        "properties": len(store.table),
    }


def _measure_in_child(work, dataset, embeddings) -> dict:
    """Run ``work(dataset, embeddings)`` in a forked child.

    Fork isolation gives each variant its own peak-RSS accounting and an
    identical starting heap (the parent's, via copy-on-write), so the
    reported ``peak_rss_kb`` deltas are attributable to featurization
    allocations alone.
    """
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:  # child
        status = 1
        try:
            os.close(read_fd)
            result = work(dataset, embeddings)
            result["peak_rss_kb"] = resource.getrusage(
                resource.RUSAGE_SELF
            ).ru_maxrss
            with os.fdopen(write_fd, "w") as sink:
                sink.write(json.dumps(result))
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    with os.fdopen(read_fd) as source:
        payload = source.read()
    _, status = os.waitpid(pid, 0)
    if status != 0 or not payload:
        raise SystemExit(f"featurization child failed (status {status})")
    return json.loads(payload)


def _merge_section(out: Path, key: str, section: dict) -> None:
    """Merge ``section`` under ``key`` into the JSON file at ``out``."""
    payload = {}
    if out.exists():
        try:
            payload = json.loads(out.read_text())
        except (OSError, ValueError):
            payload = {}
    payload[key] = section
    atomic_write_text(out, json.dumps(payload, indent=2) + "\n")


def run_features_benchmark(args) -> int:
    dataset = load_dataset(args.dataset, scale=args.scale, seed=args.seed)
    embeddings = build_domain_embeddings(args.dataset, scale=args.scale)
    print(
        f"featurization: {args.dataset}/{args.scale}, "
        f"{len(dataset.properties())} properties"
    )

    legacy = _measure_in_child(_legacy_featurize, dataset, embeddings)
    pipeline = _measure_in_child(_pipeline_featurize, dataset, embeddings)
    assert legacy["pairs"] == pipeline["pairs"]

    speedup = (
        legacy["seconds"] / pipeline["seconds"] if pipeline["seconds"] else 0.0
    )
    memory_ratio = (
        legacy["peak_rss_kb"] / pipeline["peak_rss_kb"]
        if pipeline["peak_rss_kb"]
        else 0.0
    )
    print(
        f"legacy float64:   {legacy['seconds']:8.2f}s  "
        f"peak {legacy['peak_rss_kb'] / 1024:7.1f} MiB  "
        f"matrix {legacy['matrix_mb']:7.2f} MiB"
    )
    print(
        f"pipeline float32: {pipeline['seconds']:8.2f}s  "
        f"peak {pipeline['peak_rss_kb'] / 1024:7.1f} MiB  "
        f"store  {pipeline['store_mb']:7.2f} MiB"
    )
    print(f"speedup: {speedup:.2f}x  peak-memory ratio: {memory_ratio:.2f}x")

    section = {
        "dataset": args.dataset,
        "scale": args.scale,
        "seed": args.seed,
        "pairs": pipeline["pairs"],
        "properties": pipeline["properties"],
        "legacy": legacy,
        "pipeline": pipeline,
        "speedup": round(speedup, 3),
        "peak_memory_ratio": round(memory_ratio, 3),
    }
    out = Path(args.out)
    _merge_section(out, "features", section)
    print(f"written: {out} (features section)")
    return 0


# ---------------------------------------------------------------------------
# Candidate-generation benchmark (--blocking)
# ---------------------------------------------------------------------------


def run_blocking_benchmark(args) -> int:
    """Blocked grid vs full-cross-product grid: cost and fidelity.

    Runs the 9-config grid twice with the cache-aware engine -- once
    over the full pair universe, once under ``--blocking`` -- and
    reports the candidate reduction, the pair recall of the policy and
    the per-cell F1 deltas the pruning costs.  Pruned true matches are
    scored as misses (the runner's honesty contract), so the deltas are
    against the full ground truth, not the surviving candidates.
    """
    from repro.blocking import CandidatePolicy

    policy = CandidatePolicy.from_label(args.blocking)
    if policy.is_null:
        raise SystemExit("--blocking needs a non-null policy label")
    dataset = load_dataset(args.dataset, scale=args.scale, seed=args.seed)
    embeddings = build_domain_embeddings(args.dataset, scale=args.scale)

    universe = PairUniverse(dataset, policy, embeddings=embeddings)
    stats = universe.blocking_stats()
    reduction_factor = (
        stats["total_pairs"] / stats["candidates"] if stats["candidates"] else 0.0
    )
    print(
        f"blocking {policy.label}: {stats['candidates']} of "
        f"{stats['total_pairs']} cross-source pairs "
        f"(reduction {stats['reduction_ratio']:.2%} = "
        f"{reduction_factor:.2f}x, pair recall {stats['pair_recall']:.2%})"
    )

    runner = ExperimentRunner(_factories(embeddings, _network(args.network)))
    kwargs = dict(
        train_fractions=args.fractions,
        repetitions=args.repetitions,
        seed=args.seed,
        workers=args.workers,
    )

    started = perf_counter()
    full_results = runner.run([dataset], **kwargs)
    full_seconds = perf_counter() - started
    print(f"full cross product: {full_seconds:8.2f}s")

    started = perf_counter()
    blocked_results = runner.run([dataset], policy=policy, **kwargs)
    blocked_seconds = perf_counter() - started
    print(f"blocked ({policy.label}): {blocked_seconds:8.2f}s")

    full_f1 = {
        (r.matcher_name, r.settings.train_fraction): r.f1 for r in full_results
    }
    deltas = {
        f"{r.matcher_name}@{r.settings.train_fraction:.0%}": round(
            r.f1 - full_f1[(r.matcher_name, r.settings.train_fraction)], 4
        )
        for r in blocked_results
    }
    # Signed per-cell deltas (blocked minus full).  Pruned true matches
    # count as misses, so a negative delta is a real quality loss; a
    # positive one means the policy pruned pairs the classifier would
    # have false-positived.  The acceptance gate is on the degradation
    # side: no cell may lose more than a hundredth of F1.
    min_delta = min(deltas.values())
    max_delta = max(deltas.values())
    degradation = round(max(0.0, -min_delta), 4)
    speedup = full_seconds / blocked_seconds if blocked_seconds else 0.0
    print(
        f"F1 delta (blocked - full): [{min_delta:+.4f}, {max_delta:+.4f}] "
        f"over {len(deltas)} cells; worst degradation {degradation:.4f}  "
        f"speedup {speedup:.2f}x"
    )

    section = {
        "dataset": args.dataset,
        "scale": args.scale,
        "seed": args.seed,
        "network": args.network,
        "policy": policy.label,
        "candidates": stats["candidates"],
        "total_pairs": stats["total_pairs"],
        "reduction_ratio": round(stats["reduction_ratio"], 4),
        "reduction_factor": round(reduction_factor, 3),
        "pair_recall": round(stats["pair_recall"], 4),
        "grid": {
            "configs": 9,
            "train_fractions": args.fractions,
            "repetitions": args.repetitions,
        },
        "full": {
            "wall_clock": round(full_seconds, 4),
            "mean_f1": round(
                sum(r.f1 for r in full_results) / len(full_results), 4
            ),
        },
        "blocked": {
            "wall_clock": round(blocked_seconds, 4),
            "mean_f1": round(
                sum(r.f1 for r in blocked_results) / len(blocked_results), 4
            ),
        },
        "f1_delta_by_cell": deltas,
        "f1_delta_min": round(min_delta, 4),
        "f1_delta_max": round(max_delta, 4),
        "f1_degradation_max": degradation,
        "speedup": round(speedup, 3),
    }
    out = Path(args.out)
    _merge_section(out, "blocking", section)
    print(f"written: {out} (blocking section)")
    return 0


# ---------------------------------------------------------------------------
# Name-distance kernel micro-benchmark (--kernel)
# ---------------------------------------------------------------------------


def run_kernel_benchmark(args) -> int:
    """Scalar reference vs batched kernel vs memo vs persistent reload."""
    import tempfile

    from repro.core.pipeline import (
        clear_distance_memo,
        disable_persistent_distances,
        enable_persistent_distances,
        flush_persistent_distances,
    )
    from repro.text.batch import name_distance_matrix, unique_lowered_pairs
    from repro.text.distance_cache import KERNEL_FINGERPRINT
    from repro.text.similarity import name_distance_vector

    dataset = load_dataset(args.dataset, scale=args.scale, seed=args.seed)
    universe = PairUniverse(dataset)
    raw = [(pair.left.name, pair.right.name) for pair in universe.pairs]
    uniq, _ = unique_lowered_pairs(raw)
    print(
        f"kernel: {args.dataset}/{args.scale}, {len(raw)} pair rows, "
        f"{len(uniq)} unique canonical pairs"
    )

    repeats = max(1, args.kernel_repeats)

    def best_of(work) -> float:
        return min(_timed(work) for _ in range(repeats))

    def _timed(work) -> float:
        started = perf_counter()
        work()
        return perf_counter() - started

    scalar_seconds = best_of(
        lambda: [name_distance_vector(a, b) for a, b in uniq]
    )
    batched_seconds = best_of(lambda: name_distance_matrix(raw))
    batched = name_distance_matrix(raw)
    reference = np.array([name_distance_vector(a, b) for a, b in raw])
    np.testing.assert_array_equal(batched, reference)

    # Warm in-process memo: every requested row is a dict hit + gather.
    clear_distance_memo()
    name_distance_block(raw)
    counters: dict[str, int] = {}
    memo_seconds = best_of(lambda: name_distance_block(raw, counters=counters))
    assert counters.get("computed", 0) == 0

    # Persistent reload: a fresh process (memo cleared) serving every
    # row from the on-disk cache instead of recomputing.
    with tempfile.TemporaryDirectory() as scratch:
        cache_path = Path(scratch) / "distance_cache.npz"
        enable_persistent_distances(cache_path)
        clear_distance_memo()
        name_distance_block(raw)
        flush_persistent_distances()
        disable_persistent_distances()
        clear_distance_memo()

        started = perf_counter()
        cache = enable_persistent_distances(cache_path)
        reload_counters: dict[str, int] = {}
        name_distance_block(raw, counters=reload_counters)
        persistent_seconds = perf_counter() - started
        disable_persistent_distances()
        clear_distance_memo()
    assert cache.loaded_entries == len(uniq)
    assert reload_counters.get("computed", 0) == 0

    batched_speedup = scalar_seconds / batched_seconds if batched_seconds else 0.0
    print(f"scalar reference:   {scalar_seconds * 1000:9.2f} ms")
    print(f"batched kernel:     {batched_seconds * 1000:9.2f} ms  ({batched_speedup:.2f}x)")
    print(f"warm memo:          {memo_seconds * 1000:9.2f} ms")
    print(f"persistent reload:  {persistent_seconds * 1000:9.2f} ms  (load + serve)")

    section = {
        "dataset": args.dataset,
        "scale": args.scale,
        "seed": args.seed,
        "pair_rows": len(raw),
        "unique_pairs": len(uniq),
        "repeats": repeats,
        "fingerprint": KERNEL_FINGERPRINT,
        "scalar_seconds": round(scalar_seconds, 4),
        "batched_seconds": round(batched_seconds, 4),
        "memo_seconds": round(memo_seconds, 4),
        "persistent_reload_seconds": round(persistent_seconds, 4),
        "batched_speedup": round(batched_speedup, 3),
        "bit_identical": True,
    }
    out = Path(args.out)
    _merge_section(out, "kernel", section)
    print(f"written: {out} (kernel section)")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dataset", default="headphones")
    parser.add_argument("--scale", default="small")
    parser.add_argument("--repetitions", type=int, default=15)
    parser.add_argument(
        "--fractions", type=float, nargs="+", default=[0.2, 0.8],
        help="train fractions; the default is the paper's 20%% and 80%%, "
             "which train on distinct source counts",
    )
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--network", choices=("light", "paper"), default="light",
        help="'light' (default) isolates the engine from NN training; "
             "'paper' uses the full Section IV-D network",
    )
    parser.add_argument("--out", default="BENCH_grid.json")
    parser.add_argument(
        "--features", action="store_true",
        help="run the featurization micro-benchmark (staged float32 "
             "pipeline vs legacy float64 path) instead of the grid",
    )
    parser.add_argument(
        "--kernel", action="store_true",
        help="run the name-distance kernel micro-benchmark (scalar "
             "reference vs batched kernel vs memo vs persistent "
             "reload) instead of the grid",
    )
    parser.add_argument(
        "--kernel-repeats", type=int, default=3,
        help="best-of-N repeats for each --kernel measurement",
    )
    parser.add_argument(
        "--blocking", nargs="?", const="minhash", default=None,
        metavar="POLICY",
        help="run the candidate-generation benchmark (blocked grid vs "
             "full cross product) under the given policy label "
             "(default: minhash) instead of the engine comparison",
    )
    args = parser.parse_args(argv)
    if sum(map(bool, (args.features, args.kernel, args.blocking))) > 1:
        parser.error("--features, --kernel and --blocking are mutually exclusive")
    if args.features:
        return run_features_benchmark(args)
    if args.kernel:
        return run_kernel_benchmark(args)
    if args.blocking:
        return run_blocking_benchmark(args)

    dataset = load_dataset(args.dataset, scale=args.scale, seed=args.seed)
    embeddings = build_domain_embeddings(args.dataset, scale=args.scale)
    runner = ExperimentRunner(_factories(embeddings, _network(args.network)))
    kwargs = dict(
        train_fractions=args.fractions,
        repetitions=args.repetitions,
        seed=args.seed,
    )
    cells = 9 * len(args.fractions)
    print(
        f"grid: {args.dataset}/{args.scale}, {cells} cells x "
        f"{args.repetitions} repetitions, network={args.network}"
    )

    # Untimed warm-up: prime the shared name-distance cache for every
    # cross-source pair.  Both timed runs start from the same state.
    started = perf_counter()
    universe = PairUniverse(dataset)
    name_distance_block(
        [(pair.left.name, pair.right.name) for pair in universe.pairs]
    )
    print(f"warm-up ({len(universe)} pairs): {perf_counter() - started:.2f}s")

    # Engine first: the process pool forks before the serial run has
    # grown the parent heap, keeping copy-on-write traffic low.
    started = perf_counter()
    engine_results = runner.run([dataset], workers=args.workers, **kwargs)
    engine_seconds = perf_counter() - started
    print(f"engine (store + {args.workers} workers): {engine_seconds:8.2f}s")

    started = perf_counter()
    serial_results = runner.run([dataset], workers=1, **kwargs)
    serial_seconds = perf_counter() - started
    print(f"serial (store, 1 worker):   {serial_seconds:8.2f}s")

    identical = _aggregates(engine_results) == _aggregates(serial_results)
    speedup = serial_seconds / engine_seconds if engine_seconds > 0 else 0.0
    print(f"speedup: {speedup:.2f}x  aggregates identical: {identical}")
    if not identical:
        raise SystemExit("aggregates differ between serial and engine runs")

    payload = {
        "benchmark": "grid_engine",
        "dataset": args.dataset,
        "scale": args.scale,
        "seed": args.seed,
        "network": args.network,
        "grid": {
            "configs": 9,
            "train_fractions": args.fractions,
            "repetitions": args.repetitions,
            "cells": cells,
        },
        "host": {
            "cpus": os.cpu_count(),
            "platform": platform.platform(),
            "python": platform.python_version(),
        },
        "serial": {
            "wall_clock": round(serial_seconds, 4),
            "phases": {
                k: round(v, 4)
                for k, v in _phase_sum(serial_results).as_dict().items()
            },
        },
        "engine": {
            "wall_clock": round(engine_seconds, 4),
            "workers": args.workers,
            "phases": {
                k: round(v, 4)
                for k, v in _phase_sum(engine_results).as_dict().items()
            },
        },
        "speedup": round(speedup, 3),
        "aggregates_identical": identical,
    }
    out = Path(args.out)
    atomic_write_text(out, json.dumps(payload, indent=2) + "\n")
    print(f"written: {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
