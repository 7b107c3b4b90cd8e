"""Fast follow-mode smoke test for `make serve-smoke` and CI.

Exercises the crash-safety story of `repro serve --follow` end to end
in a few seconds: a forked daemon is hard-killed immediately after its
first `fused` journal append, a fresh daemon resumes from the journal,
and the resulting matches/clusters must be byte-identical to a cold
rebuild over the same sources; a poison source (wrong header columns)
must quarantine with a structured reason without stalling the healthy
ones.  Exits non-zero on any violation.
"""

from __future__ import annotations

import os
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.baselines import LshMatcher  # noqa: E402
from repro.evaluation.runner import RetryPolicy  # noqa: E402
from repro.ioutils import atomic_write_text  # noqa: E402
from repro.ingest import (  # noqa: E402
    REASON_POISON,
    FollowDaemon,
    IngestJournal,
    IngestPipeline,
    cold_rebuild,
)
from repro.testing import StageFaultPlan, write_poison_csv  # noqa: E402
from repro.testing.faults import WORKER_EXIT_CODE  # noqa: E402

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


def make_daemon(feed: Path, out: Path, fault_plan=None) -> FollowDaemon:
    pipeline = IngestPipeline(LshMatcher(), out / "matches.csv", out / "clusters.json")
    pipeline.bootstrap(None)
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
        for name in ("matches.csv", "clusters.json"):
            ours, reference = (out / name).read_bytes(), (cold / name).read_bytes()
            assert ours == reference, f"{name} diverged from cold rebuild"

        # 3. A poison source quarantines; the journal names the reason.
        write_poison_csv(feed / "poison.csv")
        summary = make_daemon(feed, out).run(resume=True, max_idle_polls=5)
        assert summary["quarantined"] == 1, summary
        journal = IngestJournal(out / "ingest.journal")
        [event] = journal.quarantined().values()
        assert event.reason == REASON_POISON, event
        print(journal.describe())
    print("follow-mode smoke: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
