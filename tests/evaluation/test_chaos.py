"""Chaos tests: real process deaths against the full experiment grid.

Each test injects a process-level fault -- a worker hard-killed with
``os._exit``, a worker hung past the cell deadline, a SIGTERM delivered
to the parent mid-grid -- and asserts the PR 2 invariant survives it:
the journal stays valid and the final aggregates (and journal bytes)
are identical to a clean serial run.

Factories are ``functools.partial`` over module-level functions so the
pool can construct them in workers; fault budgets live in files under a
per-test directory, so they survive the process deaths they cause and a
re-dispatched repetition runs clean.
"""

import functools
import signal
import time

import numpy as np
import pytest

from repro.core import LeapmeConfig, LeapmeMatcher
from repro.core.api import Matcher
from repro.errors import GridInterrupted
from repro.evaluation import (
    ExperimentRunner,
    RunJournal,
    SupervisorPolicy,
)
from repro.evaluation.checkpoint import (
    REASON_TIMEOUT,
    REASON_WORKER_CRASH,
    STATUS_FAILED,
)
from repro.nn.schedule import TrainingSchedule
from repro.testing import FaultPlan, FaultyMatcher, SimulatedKill
from repro.text.normalize import token_set

FAST = dict(backoff_base=0.01, backoff_cap=0.05, watchdog_interval=0.02)


class NameEqMatcher(Matcher):
    name = "NameEq"
    is_supervised = True

    def fit(self, dataset, training_pairs):
        pass

    def score_pairs(self, dataset, pairs):
        return np.array(
            [
                1.0 if token_set(p.left.name) == token_set(p.right.name) else 0.0
                for p in pairs
            ]
        )


def _healthy_factory():
    return FaultyMatcher(NameEqMatcher(), FaultPlan())


def _exit_factory(state_dir, repetition, times):
    return FaultyMatcher(
        NameEqMatcher(),
        FaultPlan.worker_exit(repetition, state_dir=state_dir, times=times),
    )


def _hang_factory(state_dir, repetition, seconds):
    return FaultyMatcher(
        NameEqMatcher(),
        FaultPlan.worker_hang(
            repetition, state_dir=state_dir, seconds=seconds
        ),
    )


def _sigterm_factory(state_dir, repetition):
    return FaultyMatcher(
        NameEqMatcher(),
        FaultPlan.sigterm_parent(repetition, state_dir=state_dir),
    )


class KilledLeapmeMatcher(LeapmeMatcher):
    """A store-backed LEAPME matcher whose process dies at repetition 3."""

    def notify_repetition(self, repetition, attempt):
        if repetition == 3:
            raise SimulatedKill(f"killed at repetition {repetition}")


def _killed_leapme_factory(embeddings):
    return KilledLeapmeMatcher(
        embeddings,
        config=LeapmeConfig(
            hidden_sizes=(8,), schedule=TrainingSchedule.constant(2, 1e-3)
        ),
    )


def _summaries(results):
    return [
        (
            r.matcher_name,
            r.dataset_name,
            r.qualities,
            r.skipped_repetitions,
            [(f.repetition, f.error_type) for f in r.failures],
        )
        for r in results
    ]


GRID = dict(train_fractions=[0.5], repetitions=4, seed=7)


@pytest.fixture()
def clean_serial(tiny_headphones, tmp_path):
    """A clean serial run and its journal: the ground truth to match."""
    journal = RunJournal(tmp_path / "clean.jsonl")
    results = ExperimentRunner({"cell": _healthy_factory}).run(
        [tiny_headphones], journal=journal, **GRID
    )
    return results, journal.path.read_bytes()


class TestWorkerKillChaos:
    def test_worker_killed_mid_grid_completes_byte_identical(
        self, tiny_headphones, tmp_path, clean_serial
    ):
        clean_results, clean_bytes = clean_serial
        factory = functools.partial(
            _exit_factory, str(tmp_path / "faults"), 2, 1
        )
        journal = RunJournal(tmp_path / "chaos.jsonl")
        results = ExperimentRunner({"cell": factory}).run(
            [tiny_headphones],
            journal=journal,
            workers=2,
            supervisor=SupervisorPolicy(**FAST),
            **GRID,
        )
        assert _summaries(results) == _summaries(clean_results)
        assert journal.path.read_bytes() == clean_bytes

    def test_poison_repetition_quarantined_then_resumable(
        self, tiny_headphones, tmp_path, clean_serial
    ):
        clean_results, clean_bytes = clean_serial
        poison = functools.partial(
            _exit_factory, str(tmp_path / "faults"), 1, 10**6
        )
        journal = RunJournal(tmp_path / "chaos.jsonl")
        results = ExperimentRunner({"cell": poison}).run(
            [tiny_headphones],
            journal=journal,
            workers=2,
            supervisor=SupervisorPolicy(**FAST),
            **GRID,
        )
        (result,) = results
        assert result.quarantined_repetitions == 1
        (failure,) = result.failures
        assert failure.repetition == 1
        assert failure.error_type == REASON_WORKER_CRASH
        (key,) = journal.keys()
        entry = journal.entries(key)[1]
        assert entry.status == STATUS_FAILED
        assert entry.error_type == REASON_WORKER_CRASH
        assert "quarantined" in journal.describe()

        # Quarantine is not a verdict: a resumed run with the fault gone
        # re-attempts the repetition and lands on the clean aggregates.
        resumed = ExperimentRunner({"cell": _healthy_factory}).run(
            [tiny_headphones], journal=journal, workers=2, **GRID
        )
        assert resumed[0].qualities == clean_results[0].qualities
        assert resumed[0].failures == []

    def test_respawn_budget_zero_degrades_to_serial_in_grid(
        self, tiny_headphones, tmp_path, clean_serial
    ):
        clean_results, clean_bytes = clean_serial
        factory = functools.partial(
            _exit_factory, str(tmp_path / "faults"), 2, 1
        )
        journal = RunJournal(tmp_path / "chaos.jsonl")
        results = ExperimentRunner({"cell": factory}).run(
            [tiny_headphones],
            journal=journal,
            workers=2,
            supervisor=SupervisorPolicy(max_pool_respawns=0, **FAST),
            **GRID,
        )
        assert _summaries(results) == _summaries(clean_results)
        assert journal.path.read_bytes() == clean_bytes


class TestHangChaos:
    def test_hung_worker_killed_at_deadline_and_recovered(
        self, tiny_headphones, tmp_path, clean_serial
    ):
        clean_results, clean_bytes = clean_serial
        factory = functools.partial(
            _hang_factory, str(tmp_path / "faults"), 1, 30.0
        )
        journal = RunJournal(tmp_path / "chaos.jsonl")
        results = ExperimentRunner({"cell": factory}).run(
            [tiny_headphones],
            journal=journal,
            workers=2,
            supervisor=SupervisorPolicy(cell_timeout=0.75, **FAST),
            **GRID,
        )
        assert _summaries(results) == _summaries(clean_results)
        assert journal.path.read_bytes() == clean_bytes


class TestSignalChaos:
    def test_sigterm_drains_prefix_and_resume_matches_serial(
        self, tiny_headphones, tmp_path, clean_serial
    ):
        clean_results, clean_bytes = clean_serial
        factory = functools.partial(
            _sigterm_factory, str(tmp_path / "faults"), 2
        )
        journal = RunJournal(tmp_path / "chaos.jsonl")
        with pytest.raises(GridInterrupted) as excinfo:
            ExperimentRunner({"cell": factory}).run(
                [tiny_headphones],
                journal=journal,
                workers=2,
                supervisor=SupervisorPolicy(**FAST),
                **GRID,
            )
        assert excinfo.value.signum == signal.SIGTERM

        # The journal holds a valid serial-order prefix: every entry ok,
        # repetition indices contiguous from zero.
        keys = journal.keys()
        journaled = journal.entries(keys[0]) if keys else {}
        assert set(journaled) == set(range(len(journaled)))

        resumed = ExperimentRunner({"cell": _healthy_factory}).run(
            [tiny_headphones], journal=journal, workers=2, **GRID
        )
        assert _summaries(resumed) == _summaries(clean_results)
        assert resumed[0].resumed_repetitions == len(journaled)
        assert journal.path.read_bytes() == clean_bytes


class TestSimulatedKillChaos:
    def test_kill_in_store_backed_leapme_grid_journals_the_serial_prefix(
        self, tiny_headphones, tiny_embeddings, tmp_path
    ):
        factory = functools.partial(_killed_leapme_factory, tiny_embeddings)
        grid = dict(train_fractions=[0.5], repetitions=5, seed=7)
        written = {}
        for workers in (1, 2):
            journal = RunJournal(tmp_path / f"workers-{workers}.jsonl")
            with pytest.raises(SimulatedKill):
                ExperimentRunner({"leapme": factory}).run(
                    [tiny_headphones],
                    journal=journal,
                    workers=workers,
                    # A grace long enough for the sibling still fitting
                    # repetition 2 to finish: the prefix must not depend
                    # on scheduling.
                    supervisor=SupervisorPolicy(shutdown_grace=30.0),
                    **grid,
                )
            # A run that journals nothing leaves no file at all.
            written[workers] = (
                journal.path.read_bytes() if journal.path.exists() else b""
            )
        # The header plus repetitions 0-2, byte for byte as serial.
        assert len(written[1].splitlines()) == 4
        assert written[2] == written[1]


class SlowFitMatcher(NameEqMatcher):
    """NameEq whose fit takes ``seconds`` of wall clock."""

    def __init__(self, seconds):
        self.seconds = seconds

    def fit(self, dataset, training_pairs):
        time.sleep(self.seconds)


def _poison_hang_factory(state_dir, repetition):
    return FaultyMatcher(
        NameEqMatcher(),
        FaultPlan.worker_hang(
            repetition, state_dir=state_dir, times=10**6, seconds=30.0
        ),
    )


SPLIT_GRID = dict(train_fractions=[0.5], repetitions=3, seed=7)


class TestSplitItemDeadlines:
    """A split item of k cells runs under k cell deadlines."""

    def _clean(self, tiny_headphones, labels):
        return ExperimentRunner({label: NameEqMatcher for label in labels}).run(
            [tiny_headphones], **SPLIT_GRID
        )

    def test_item_longer_than_one_deadline_but_not_per_cell_completes(
        self, tiny_headphones
    ):
        # Each split item fits two cells for 0.6 s each: 1.2 s in all,
        # past one 1.0 s deadline but inside each cell's own.
        factories = {
            label: functools.partial(SlowFitMatcher, 0.6) for label in ("a", "b")
        }
        results = ExperimentRunner(factories).run(
            [tiny_headphones],
            workers=2,
            supervisor=SupervisorPolicy(cell_timeout=1.0, **FAST),
            **SPLIT_GRID,
        )
        assert all(not result.failures for result in results)
        assert _summaries(results) == _summaries(
            self._clean(tiny_headphones, ("a", "b"))
        )

    def test_hung_cell_is_killed_and_its_split_quarantined(
        self, tiny_headphones, tmp_path
    ):
        hung = functools.partial(
            _poison_hang_factory, str(tmp_path / "faults"), 1
        )
        journal = RunJournal(tmp_path / "chaos.jsonl")
        results = ExperimentRunner(
            {"healthy": _healthy_factory, "hung": hung}
        ).run(
            [tiny_headphones],
            journal=journal,
            workers=2,
            supervisor=SupervisorPolicy(cell_timeout=0.5, **FAST),
            **SPLIT_GRID,
        )
        clean = self._clean(tiny_headphones, ("healthy", "hung"))
        for result, reference in zip(results, clean):
            assert result.quarantined_repetitions == 1
            assert [(f.repetition, f.error_type) for f in result.failures] == [
                (1, REASON_TIMEOUT)
            ]
            assert result.qualities == [
                reference.qualities[0],
                reference.qualities[2],
            ]
        for key in journal.keys():
            entry = journal.entries(key)[1]
            assert entry.status == STATUS_FAILED
            assert entry.error_type == REASON_TIMEOUT
