"""Fast follow-mode smoke test for `make serve-smoke` and CI.

Exercises the crash-safety story of `repro serve --follow` end to end
in a few seconds, for both kinds of matcher the daemon runs:

* LSH, unbootstrapped: a forked daemon is hard-killed immediately after
  its first `fused` journal append, a fresh daemon resumes from the
  journal, and the resulting matches/clusters must be byte-identical to
  a cold rebuild over the same sources; a poison source (wrong header
  columns) must quarantine with a structured reason without stalling
  the healthy ones.
* LEAPME (the `repro serve --follow` default), bootstrapped on the tiny
  headphones dataset minus one source with a decision-tree classifier:
  the daemon is killed right after the streamed source's `featurized`
  append, and the resumed daemon must fuse it -- not quarantine it --
  into outputs byte-identical to a cold rebuild.

Exits non-zero on any violation.
"""

from __future__ import annotations

import os
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.baselines import LshMatcher  # noqa: E402
from repro.core import LeapmeMatcher  # noqa: E402
from repro.core.classical import ClassicalPairClassifier  # noqa: E402
from repro.data.csvio import save_dataset_csv  # noqa: E402
from repro.datasets import build_domain_embeddings, load_dataset  # noqa: E402
from repro.evaluation.runner import RetryPolicy  # noqa: E402
from repro.ioutils import atomic_write_text  # noqa: E402
from repro.ingest import (  # noqa: E402
    REASON_POISON,
    FollowDaemon,
    IngestJournal,
    IngestPipeline,
    cold_rebuild,
)
from repro.ml import DecisionTreeClassifier  # noqa: E402
from repro.testing import StageFaultPlan, write_poison_csv  # noqa: E402
from repro.testing.faults import WORKER_EXIT_CODE  # noqa: E402

#: Seeds the bootstrap training-pair draw (supervised matchers only).
BOOTSTRAP_SEED = 3

SOURCES = {
    "a.csv": ("srcA", {"weight": ["10 kg box", "20 kg box"],
                       "color": ["deep red", "sky blue"]}),
    "b.csv": ("srcB", {"wt": ["10 kg box", "20 kg box"],
                       "colour": ["deep red", "sky blue"]}),
}


def write_source(directory: Path, name: str) -> Path:
    source, props = SOURCES[name]
    lines = ["source,property,entity,value"]
    for prop, values in props.items():
        for index, value in enumerate(values):
            lines.append(f"{source},{prop},e{index},{value}")
    path = directory / name
    atomic_write_text(path, "\n".join(lines) + "\n")
    return path


def make_daemon(
    feed: Path, out: Path, fault_plan=None, matcher=None, base=None
) -> FollowDaemon:
    pipeline = IngestPipeline(
        matcher if matcher is not None else LshMatcher(),
        out / "matches.csv",
        out / "clusters.json",
        seed=BOOTSTRAP_SEED,
    )
    pipeline.bootstrap(base)
    return FollowDaemon(
        feed,
        pipeline,
        IngestJournal(out / "ingest.journal"),
        poll_interval=0.005,
        retry_policy=RetryPolicy(max_retries=1),
        fault_plan=fault_plan,
    )


def run_forked(fn) -> int:
    pid = os.fork()
    if pid == 0:
        try:
            fn()
        except BaseException:  # repro: noqa[REP005] forked child cannot re-raise across the fork; the exit code is the report
            os._exit(70)
        os._exit(0)
    _, status = os.waitpid(pid, 0)
    return os.waitstatus_to_exitcode(status)


def assert_like_cold(out: Path, cold: Path) -> None:
    for name in ("matches.csv", "clusters.json"):
        ours, reference = (out / name).read_bytes(), (cold / name).read_bytes()
        assert ours == reference, f"{name} diverged from cold rebuild"


def leapme_pass(root: Path) -> None:
    """Kill a bootstrapped LEAPME daemon after `featurized`, then resume."""
    dataset = load_dataset("headphones", scale="tiny", seed=0)
    embeddings = build_domain_embeddings("headphones", scale="tiny")
    sources = dataset.sources()
    base = dataset.restrict_to_sources(sources[:-1])
    feed, out, cold = root / "leapme-feed", root / "leapme-out", root / "leapme-cold"
    for directory in (feed, out, cold):
        directory.mkdir()
    late = feed / "late.csv"
    save_dataset_csv(
        dataset.restrict_to_sources(sources[-1:]), late, feed / "late.alignment.csv"
    )

    def matcher() -> LeapmeMatcher:
        return LeapmeMatcher(
            embeddings,
            classifier_factory=lambda: ClassicalPairClassifier(
                DecisionTreeClassifier(max_depth=4)
            ),
        )

    plan = StageFaultPlan(
        exit_after={"featurized": 1}, state_dir=str(root / "leapme-faults")
    )
    code = run_forked(
        lambda: make_daemon(
            feed, out, fault_plan=plan, matcher=matcher(), base=base
        ).run(max_batches=1)
    )
    assert code == WORKER_EXIT_CODE, f"LEAPME daemon exited {code}, not killed"
    summary = make_daemon(feed, out, matcher=matcher(), base=base).run(
        resume=True, max_idle_polls=5
    )
    assert summary["fused"] == 1 and summary["quarantined"] == 0, summary
    cold_rebuild(
        matcher(),
        [late],
        cold / "matches.csv",
        cold / "clusters.json",
        base=base,
        seed=BOOTSTRAP_SEED,
    )
    assert_like_cold(out, cold)


def main() -> int:
    with tempfile.TemporaryDirectory() as scratch:
        root = Path(scratch)
        feed = root / "feed"
        out = root / "out"
        feed.mkdir()
        out.mkdir()
        files = [write_source(feed, name) for name in sorted(SOURCES)]

        # 1. Hard-kill right after the first fused record lands.
        plan = StageFaultPlan(
            exit_after={"fused": 1}, state_dir=str(root / "faults")
        )
        code = run_forked(
            lambda: make_daemon(feed, out, fault_plan=plan).run(max_batches=2)
        )
        assert code == WORKER_EXIT_CODE, f"daemon exited {code}, not killed"

        # 2. Resume replays the journal; outputs match a cold rebuild
        #    byte for byte.
        summary = make_daemon(feed, out).run(resume=True, max_idle_polls=5)
        assert summary["replayed"] == 1, summary
        assert summary["replayed"] + summary["fused"] == 2, summary
        cold = root / "cold"
        cold.mkdir()
        cold_rebuild(LshMatcher(), files, cold / "matches.csv", cold / "clusters.json")
        assert_like_cold(out, cold)

        # 3. A poison source quarantines; the journal names the reason.
        write_poison_csv(feed / "poison.csv")
        summary = make_daemon(feed, out).run(resume=True, max_idle_polls=5)
        assert summary["quarantined"] == 1, summary
        journal = IngestJournal(out / "ingest.journal")
        [event] = journal.quarantined().values()
        assert event.reason == REASON_POISON, event
        print(journal.describe())

        # 4. LEAPME, killed between featurize and fuse, resumes cleanly.
        leapme_pass(root)
    print("follow-mode smoke: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
