"""Chaos tests: real process deaths against the follow-mode daemon.

A forked daemon is hard-killed (``os._exit``, no unwinding) immediately
after each journaled lifecycle stage, then a fresh process resumes from
the journal; the acceptance invariant is that the resumed outputs are
byte-identical to a cold rebuild over the same sources.  A second group
covers the artifacts crashed *producers* leave behind (torn CSVs) and
SIGTERM against the real ``repro serve`` CLI.
"""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.baselines import LshMatcher
from repro.ingest import (
    REASON_POISON,
    STATUS_FUSED,
    IngestJournal,
    cold_rebuild,
)
from repro.testing import StageFaultPlan, write_torn_csv
from repro.testing.faults import WORKER_EXIT_CODE

from tests.ingest.conftest import PROPS_A, PROPS_B, make_daemon, write_source

REPO_ROOT = Path(__file__).resolve().parents[2]


def run_forked(fn) -> int:
    """Run ``fn`` in a forked child; returns the child's exit code."""
    pid = os.fork()
    if pid == 0:  # pragma: no cover - child process
        try:
            fn()
        except BaseException:
            os._exit(70)
        os._exit(0)
    _, status = os.waitpid(pid, 0)
    return os.waitstatus_to_exitcode(status)


def output_bytes(out_dir):
    return (
        (out_dir / "matches.csv").read_bytes(),
        (out_dir / "clusters.json").read_bytes(),
    )


class TestStageKills:
    @pytest.mark.parametrize(
        ("stage", "expected_replayed"),
        [("admitted", 0), ("featurized", 0), ("fused", 1)],
    )
    def test_sigkill_after_stage_then_resume_is_byte_identical(
        self, feed, tmp_path, stage, expected_replayed
    ):
        a = write_source(feed, "a.csv", "srcA", PROPS_A)
        b = write_source(feed, "b.csv", "srcB", PROPS_B)
        out = tmp_path / "out"
        out.mkdir()
        plan = StageFaultPlan(
            exit_after={stage: 1}, state_dir=str(tmp_path / "faults")
        )

        def doomed():
            make_daemon(feed, out, fault_plan=plan).run(max_batches=2)

        assert run_forked(doomed) == WORKER_EXIT_CODE

        fresh = make_daemon(feed, out)
        summary = fresh.run(resume=True, max_idle_polls=5)
        assert summary["replayed"] == expected_replayed
        assert summary["replayed"] + summary["fused"] == 2
        latest = IngestJournal(out / "ingest.journal").latest()
        assert sorted(
            event.file for event in latest.values()
            if event.status == STATUS_FUSED
        ) == ["a.csv", "b.csv"]

        cold = tmp_path / "cold"
        cold.mkdir()
        cold_rebuild(LshMatcher(), [a, b], cold / "matches.csv", cold / "clusters.json")
        assert output_bytes(out) == output_bytes(cold)

    def test_repeated_kills_at_every_stage_in_one_run(self, feed, tmp_path):
        """The daemon survives a kill after *each* stage, one per life."""
        a = write_source(feed, "a.csv", "srcA", PROPS_A)
        b = write_source(feed, "b.csv", "srcB", PROPS_B)
        out = tmp_path / "out"
        out.mkdir()
        plan = StageFaultPlan(
            exit_after={"admitted": 1, "featurized": 1, "fused": 1},
            state_dir=str(tmp_path / "faults"),
        )

        def doomed():
            # Bounded by idleness, not batch count: after a resume the
            # number of *newly* fused batches is unknown, and a forked
            # child has no test-timeout alarm to save it from spinning.
            make_daemon(feed, out, fault_plan=plan).run(
                resume=(out / "ingest.journal").exists(), max_idle_polls=5
            )

        deaths = 0
        while deaths < 10:
            code = run_forked(doomed)
            if code == 0:
                break
            assert code == WORKER_EXIT_CODE
            deaths += 1
        assert 1 <= deaths <= 3  # one death per budgeted stage, then done

        cold = tmp_path / "cold"
        cold.mkdir()
        cold_rebuild(LshMatcher(), [a, b], cold / "matches.csv", cold / "clusters.json")
        assert output_bytes(out) == output_bytes(cold)


class TestCrashedProducers:
    def test_torn_header_is_quarantined_healthy_source_fuses(self, feed, tmp_path):
        # A producer that died inside its header row: the stable torn
        # file admits, the loader raises a permanent DataError, and the
        # source quarantines without stalling the healthy one.
        write_torn_csv(
            feed / "torn.csv",
            [["source", "property", "entity", "value"],
             ["srcT", "weight", "e0", "10 kg box"]],
            keep=0.1,
        )
        write_source(feed, "good.csv", "srcA", PROPS_A)
        daemon = make_daemon(feed, tmp_path, max_retries=0)
        summary = daemon.run(max_idle_polls=3)
        assert summary["fused"] == 1
        assert summary["quarantined"] == 1
        [event] = daemon.journal.quarantined().values()
        assert event.file == "torn.csv"
        assert event.reason == REASON_POISON

    def test_torn_data_row_fuses_surviving_rows(self, feed, tmp_path):
        # Died mid data row: the torn row is quarantined by the loader
        # (Dataset.validation), the surviving rows fuse normally.
        write_torn_csv(
            feed / "torn.csv",
            [["source", "property", "entity", "value"],
             ["srcT", "weight", "e0", "10 kg box"],
             ["srcT", "weight", "e1", "20 kg box"]],
            keep=0.8,
        )
        daemon = make_daemon(feed, tmp_path)
        assert daemon.run(max_batches=1)["fused"] == 1


class TestServeSignals:
    def test_sigterm_exits_128_plus_signum_with_resume_hint(self, feed, tmp_path):
        write_source(feed, "a.csv", "srcA", PROPS_A)
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--follow", str(feed),
                "--system", "lsh",
                "--threshold", "0.3",
                "--poll-interval", "0.01",
                "--out", str(tmp_path / "matches.csv"),
                "--clusters", str(tmp_path / "clusters.json"),
                "--journal", str(tmp_path / "ingest.journal"),
            ],
            env=env,
            cwd=REPO_ROOT,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            deadline = time.monotonic() + 60
            matches = tmp_path / "matches.csv"
            while not matches.exists():
                assert proc.poll() is None, proc.communicate()[1]
                assert time.monotonic() < deadline, "daemon never fused a.csv"
                time.sleep(0.05)
            proc.send_signal(signal.SIGTERM)
            _, stderr = proc.communicate(timeout=30)
        finally:
            if proc.poll() is None:  # pragma: no cover - cleanup on failure
                proc.kill()
                proc.communicate()
        assert proc.returncode == 128 + signal.SIGTERM
        assert "interrupted" in stderr
        assert f"--journal {tmp_path / 'ingest.journal'} --resume" in stderr
        # The fused batch survived the signal: a resumed serve replays it.
        journal = IngestJournal(tmp_path / "ingest.journal")
        assert [event.file for event in journal.fused_in_order()] == ["a.csv"]
