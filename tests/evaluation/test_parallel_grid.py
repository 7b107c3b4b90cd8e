"""Parallel grid execution must be invisible except for speed.

``workers=4`` and ``workers=1`` must produce byte-identical journals
and identical aggregates -- on healthy grids, under injected faults,
and across kill/resume cycles.  Matcher factories live at module level
so worker processes can construct them.
"""

import functools
import json

import numpy as np
import pytest

from repro.core import FeatureConfig, LeapmeConfig, LeapmeMatcher, ResilientClassifier
from repro.core.api import Matcher
from repro.datasets import load_dataset
from repro.evaluation import runner as runner_module
from repro.evaluation import (
    ExperimentRunner,
    RetryPolicy,
    RunJournal,
    RunSettings,
)
from repro.nn.schedule import TrainingSchedule
from repro.testing import (
    AlwaysDivergingClassifier,
    FaultInjected,
    FaultPlan,
    FaultyMatcher,
    SimulatedKill,
)
from repro.text.normalize import token_set
from tests.evaluation.oracle import evaluate_one_matcher


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
            evaluate_one_matcher(
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
            evaluate_one_matcher(
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


LIGHT = LeapmeConfig(hidden_sizes=(8,), schedule=TrainingSchedule.constant(2, 1e-3))


class FlakyFitLeapme(LeapmeMatcher):
    """A LEAPME matcher whose fit raises on attempt 1 of every repetition."""

    def notify_repetition(self, repetition, attempt):
        self.attempt = attempt

    def fit(self, dataset, training_pairs):
        if self.attempt == 1:
            raise FaultInjected("attempt-1 fit fails")
        super().fit(dataset, training_pairs)


def _split_grid_factories(embeddings, mixed: bool) -> dict:
    factories = {
        config.label(): functools.partial(
            LeapmeMatcher, embeddings, config, LIGHT
        )
        for config in FeatureConfig.grid()
    }
    if mixed:
        factories["nameeq"] = NameEqMatcher
        factories["classical-rung"] = functools.partial(
            LeapmeMatcher,
            embeddings,
            config=LIGHT,
            classifier_factory=functools.partial(
                ResilientClassifier, LIGHT, AlwaysDivergingClassifier
            ),
        )
        factories["flaky-fit"] = functools.partial(
            FlakyFitLeapme, embeddings, config=LIGHT
        )
    return factories


class TestSplitGrid:
    """Split items score like each config alone, at every worker count."""

    FRACTIONS = (0.5, 0.8)
    SEED = 5

    @pytest.mark.parametrize("mixed", [False, True], ids=["leapme", "mixed"])
    def test_split_items_equal_per_config_references(
        self, tiny_headphones, tiny_embeddings, tmp_path, mixed
    ):
        factories = _split_grid_factories(tiny_embeddings, mixed)
        references = [
            evaluate_one_matcher(
                factories[label](),
                tiny_headphones,
                RunSettings(train_fraction=fraction, repetitions=2, seed=self.SEED),
                label=label,
            )
            for fraction in self.FRACTIONS
            for label in factories
        ]
        runner = ExperimentRunner(factories)
        journals = {}
        for workers in (1, 2):
            journal = RunJournal(tmp_path / f"workers-{workers}.jsonl")
            results = runner.run(
                [tiny_headphones],
                train_fractions=self.FRACTIONS,
                repetitions=2,
                seed=self.SEED,
                journal=journal,
                workers=workers,
            )
            assert _summaries(results) == _summaries(references)
            journals[workers] = journal.path.read_bytes()
        assert journals[2] == journals[1]
        if mixed:
            by_label = {r.matcher_name: r for r in results}
            assert by_label["classical-rung"].degraded_repetitions == 2
            assert by_label["flaky-fit"].qualities
            assert not by_label["flaky-fit"].failures

    def test_failed_shared_pass_scores_each_cell_alone(
        self, tiny_headphones, tiny_embeddings, monkeypatch
    ):
        factories = dict(
            list(_split_grid_factories(tiny_embeddings, mixed=False).items())[:3]
        )
        references = [
            evaluate_one_matcher(
                factories[label](),
                tiny_headphones,
                RunSettings(train_fraction=0.5, repetitions=2, seed=self.SEED),
                label=label,
            )
            for label in factories
        ]

        passes = []

        def broken(*args):
            passes.append(args)
            raise RuntimeError("shared pass failed")

        monkeypatch.setattr(runner_module, "score_together", broken)
        results = ExperimentRunner(factories).run(
            [tiny_headphones], train_fractions=[0.5], repetitions=2, seed=self.SEED
        )
        assert len(passes) == 2
        assert _summaries(results) == _summaries(references)

    def test_splits_journal_in_split_major_order(self, tiny_headphones, tmp_path):
        journal = RunJournal(tmp_path / "run.jsonl")
        runner = ExperimentRunner(FACTORIES)
        runner.run(
            [tiny_headphones],
            train_fractions=[0.5],
            repetitions=2,
            seed=3,
            journal=journal,
        )
        records = [
            json.loads(line) for line in journal.path.read_text().splitlines()[1:]
        ]
        assert [(r["key"].split("|")[0], r["repetition"]) for r in records] == [
            ("nameeq", 0),
            ("jaccard", 0),
            ("nameeq", 1),
            ("jaccard", 1),
        ]


class CountingMatcher(NameEqMatcher):
    """NameEq that records each fit, by label, in a shared list."""

    def __init__(self, label, fits):
        self.label = label
        self.fits = fits

    def fit(self, dataset, training_pairs):
        self.fits.append(self.label)


class TestCollapsedSplits:
    """Fractions that round to one source count share their split items."""

    def _run(self, dataset, fractions, journal, fits):
        runner = ExperimentRunner(
            {
                label: functools.partial(CountingMatcher, label, fits)
                for label in ("first", "second")
            }
        )
        return runner.run(
            [dataset], train_fractions=fractions, repetitions=2, journal=journal
        )

    def test_each_label_fits_once_per_distinct_split(self, tmp_path):
        dataset = load_dataset("headphones", scale="small", seed=0)
        fits: list[str] = []
        journal = RunJournal(tmp_path / "shared.jsonl")
        with pytest.warns(UserWarning, match="both train on 2 of 10"):
            shared = self._run(dataset, (0.1, 0.2, 0.8), journal, fits)
        # 0.1 and 0.2 both train on 2 sources: 2 splits x 2 repetitions.
        assert fits.count("first") == 4
        assert fits.count("second") == 4

        unshared_journal = RunJournal(tmp_path / "unshared.jsonl")
        unshared = []
        for fraction in (0.1, 0.2, 0.8):
            unshared += self._run(dataset, (fraction,), unshared_journal, [])
        assert _summaries(shared) == _summaries(unshared)
        assert [r.timings.total > 0 for r in shared] == [
            True, True, False, False, True, True
        ]
        assert journal.path.read_bytes() == unshared_journal.path.read_bytes()
