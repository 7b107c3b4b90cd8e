"""Parallel grid execution must be invisible except for speed.

``workers=4`` and ``workers=1`` must produce byte-identical journals
and identical aggregates -- on healthy grids, under injected faults,
and across kill/resume cycles.  Matcher factories live at module level
so worker processes can construct them.
"""

import numpy as np
import pytest

from repro.core import LeapmeConfig, LeapmeMatcher
from repro.core.api import Matcher
from repro.evaluation import (
    ExperimentRunner,
    RetryPolicy,
    RunJournal,
    RunSettings,
    evaluate_matcher,
)
from repro.nn.schedule import TrainingSchedule
from repro.testing import FaultPlan, FaultyMatcher, SimulatedKill
from repro.text.normalize import token_set


class NameEqMatcher(Matcher):
    """Cheap deterministic supervised matcher: token-set name equality."""

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


class JaccardMatcher(Matcher):
    """Second cheap matcher so grids have heterogeneous cells."""

    name = "Jaccard"
    is_supervised = False

    def score_pairs(self, dataset, pairs):
        scores = []
        for pair in pairs:
            left = token_set(pair.left.name)
            right = token_set(pair.right.name)
            union = left | right
            scores.append(len(left & right) / len(union) if union else 0.0)
        return np.array(scores)


def _flaky_factory():
    # Repetition 1 fails once (recovered by retry); repetition 2 always
    # fails (exhausts retries into a structured failure).
    return FaultyMatcher(
        NameEqMatcher(), FaultPlan(fail_attempts={1: 1, 2: 10**9})
    )


def _doomed_factory():
    return FaultyMatcher(NameEqMatcher(), FaultPlan.kill_at(2))


def _healthy_factory():
    return FaultyMatcher(NameEqMatcher(), FaultPlan())


FACTORIES = {"nameeq": NameEqMatcher, "jaccard": JaccardMatcher}


def _summaries(results):
    return [
        (
            r.matcher_name,
            r.dataset_name,
            r.settings.train_fraction,
            r.qualities,
            r.skipped_repetitions,
            [(f.repetition, f.error_type, f.attempts) for f in r.failures],
            r.degraded_repetitions,
            r.resumed_repetitions,
        )
        for r in results
    ]


class TestParallelDeterminism:
    def test_parallel_grid_matches_serial_bytes_and_aggregates(
        self, tiny_headphones, tiny_cameras, tmp_path
    ):
        datasets = [tiny_headphones, tiny_cameras]
        kwargs = dict(
            train_fractions=[0.5], repetitions=3, seed=11
        )
        runner = ExperimentRunner(FACTORIES)
        serial_journal = RunJournal(tmp_path / "serial.jsonl")
        serial = runner.run(datasets, journal=serial_journal, **kwargs)
        parallel_journal = RunJournal(tmp_path / "parallel.jsonl")
        parallel = runner.run(
            datasets, journal=parallel_journal, workers=4, **kwargs
        )
        assert _summaries(parallel) == _summaries(serial)
        assert (
            parallel_journal.path.read_bytes()
            == serial_journal.path.read_bytes()
        )

    def test_parallel_matches_serial_without_feature_sharing(
        self, tiny_headphones
    ):
        runner = ExperimentRunner({"nameeq": NameEqMatcher})
        # The reference cell shares nothing: it enumerates its own
        # universe.
        baseline = [
            evaluate_matcher(
                NameEqMatcher(),
                tiny_headphones,
                RunSettings(train_fraction=0.5, repetitions=3, seed=2),
                label="nameeq",
            )
        ]
        shared = runner.run(
            [tiny_headphones], train_fractions=[0.5], repetitions=3, seed=2
        )
        parallel = runner.run(
            [tiny_headphones], train_fractions=[0.5], repetitions=3, seed=2,
            workers=3,
        )
        assert _summaries(shared) == _summaries(baseline)
        assert _summaries(parallel) == _summaries(baseline)

    def test_fault_injection_is_deterministic_across_workers(
        self, tiny_headphones, tmp_path
    ):
        runner = ExperimentRunner({"flaky": _flaky_factory})
        kwargs = dict(
            train_fractions=[0.5],
            repetitions=4,
            seed=7,
            retry_policy=RetryPolicy(max_retries=1),
        )
        serial_journal = RunJournal(tmp_path / "serial.jsonl")
        serial = runner.run(
            [tiny_headphones], journal=serial_journal, **kwargs
        )
        parallel_journal = RunJournal(tmp_path / "parallel.jsonl")
        parallel = runner.run(
            [tiny_headphones], journal=parallel_journal, workers=4, **kwargs
        )
        # Repetition 2's failure record (attempts exhausted) and
        # repetition 1's recovered retry must match exactly.
        assert serial[0].failures[0].repetition == 2
        assert serial[0].failures[0].attempts == 2
        assert _summaries(parallel) == _summaries(serial)
        assert (
            parallel_journal.path.read_bytes()
            == serial_journal.path.read_bytes()
        )

    def test_parallel_kill_leaves_serial_prefix_and_resumes(
        self, tiny_headphones, tmp_path
    ):
        uninterrupted = ExperimentRunner({"cell": _healthy_factory}).run(
            [tiny_headphones], train_fractions=[0.5], repetitions=4, seed=7
        )

        journal = RunJournal(tmp_path / "run.jsonl")
        doomed = ExperimentRunner({"cell": _doomed_factory})
        with pytest.raises(SimulatedKill):
            doomed.run(
                [tiny_headphones],
                train_fractions=[0.5],
                repetitions=4,
                seed=7,
                journal=journal,
                workers=4,
            )
        (key,) = journal.keys()
        assert set(journal.entries(key)) == {0, 1}

        # The parallel rerun restores 0-1 and recomputes only 2-3.
        survivor = ExperimentRunner({"cell": _healthy_factory})
        resumed = survivor.run(
            [tiny_headphones],
            train_fractions=[0.5],
            repetitions=4,
            seed=7,
            journal=journal,
            workers=4,
        )
        assert resumed[0].resumed_repetitions == 2
        assert resumed[0].qualities == uninterrupted[0].qualities
        assert set(journal.entries(key)) == {0, 1, 2, 3}

    def test_fully_journaled_parallel_rerun_executes_nothing(
        self, tiny_headphones, tmp_path
    ):
        journal = RunJournal(tmp_path / "run.jsonl")
        runner = ExperimentRunner({"nameeq": NameEqMatcher})
        kwargs = dict(train_fractions=[0.5], repetitions=3, seed=5)
        first = runner.run([tiny_headphones], journal=journal, **kwargs)
        before = journal.path.read_bytes()
        rerun = runner.run(
            [tiny_headphones], journal=journal, workers=4, **kwargs
        )
        assert rerun[0].resumed_repetitions == 3
        assert rerun[0].qualities == first[0].qualities
        # Nothing was re-executed, so nothing was re-journaled.
        assert journal.path.read_bytes() == before

    def test_workers_must_be_positive(self, tiny_headphones):
        from repro.errors import ConfigurationError

        runner = ExperimentRunner({"nameeq": NameEqMatcher})
        with pytest.raises(ConfigurationError):
            runner.run([tiny_headphones], workers=0)

    def test_cell_timeout_needs_a_pool(self, tiny_headphones):
        from repro.errors import ConfigurationError
        from repro.evaluation import SupervisorPolicy

        runner = ExperimentRunner({"nameeq": NameEqMatcher})
        with pytest.raises(ConfigurationError, match="workers >= 2"):
            runner.run(
                [tiny_headphones],
                workers=1,
                supervisor=SupervisorPolicy(cell_timeout=1e-6),
            )


class TestParallelLeapme:
    def test_leapme_grid_parallel_and_store_match_serial(
        self, tiny_headphones, tiny_embeddings, tmp_path
    ):
        config = LeapmeConfig(
            hidden_sizes=(8,), schedule=TrainingSchedule.constant(2, 1e-3)
        )

        def factory():
            return LeapmeMatcher(tiny_embeddings, config=config)

        runner = ExperimentRunner({"leapme": factory})
        kwargs = dict(train_fractions=[0.5], repetitions=2, seed=3)
        # The reference cell shares nothing: the matcher builds its own
        # store, and the pair sets are rows of that store's universe.
        baseline = [
            evaluate_matcher(
                factory(),
                tiny_headphones,
                RunSettings(train_fraction=0.5, repetitions=2, seed=3),
                label="leapme",
            )
        ]
        serial_journal = RunJournal(tmp_path / "serial.jsonl")
        parallel_journal = RunJournal(tmp_path / "parallel.jsonl")
        shared = runner.run(
            [tiny_headphones], journal=serial_journal, **kwargs
        )
        parallel = runner.run(
            [tiny_headphones], journal=parallel_journal, workers=2, **kwargs
        )
        assert _summaries(shared) == _summaries(baseline)
        assert _summaries(parallel) == _summaries(baseline)
        assert shared[0].f1 == baseline[0].f1
        assert (
            parallel_journal.path.read_bytes()
            == serial_journal.path.read_bytes()
        )
