"""Edge-case tests for the experiment runner."""

import warnings

import numpy as np
import pytest

from repro.core.api import Matcher
from repro.data.model import Dataset, PropertyInstance
from repro.datasets import load_dataset
from repro.errors import ConfigurationError
from repro.evaluation import ExperimentRunner, RunJournal, RunSettings, evaluate_matcher


class NeverCalledMatcher(Matcher):
    """Supervised matcher that must never be fitted nor score."""

    name = "NeverCalled"
    is_supervised = True

    def __init__(self):
        self.fit_calls = 0

    def fit(self, dataset, training_pairs):
        self.fit_calls += 1

    def score_pairs(self, dataset, pairs):
        return np.zeros(len(pairs))


class ConstantMatcher(Matcher):
    """Unsupervised matcher scoring everything the same."""

    name = "Constant"
    is_supervised = False

    def __init__(self, score):
        self._score = score

    def score_pairs(self, dataset, pairs):
        return np.full(len(pairs), self._score)


def _unlabelled_dataset():
    instances = [
        PropertyInstance(f"s{i}", f"p{i}{j}", f"e{i}", "v")
        for i in range(4)
        for j in range(2)
    ]
    return Dataset("nolabels", instances, {})


class TestSkippedRepetitions:
    def test_no_positive_training_pairs_skips_all(self):
        dataset = _unlabelled_dataset()
        matcher = NeverCalledMatcher()
        result = evaluate_matcher(matcher, dataset, RunSettings(repetitions=3))
        assert result.skipped_repetitions == 3
        assert result.qualities == []
        assert matcher.fit_calls == 0

    def test_metrics_of_empty_result(self):
        dataset = _unlabelled_dataset()
        result = evaluate_matcher(
            NeverCalledMatcher(), dataset, RunSettings(repetitions=2)
        )
        assert result.precision == 0.0
        assert result.f1 == 0.0
        assert result.f1_std == 0.0


class TestConstantMatchers:
    def test_all_positive_predictions(self):
        dataset = _unlabelled_dataset()
        result = evaluate_matcher(
            ConstantMatcher(1.0), dataset, RunSettings(repetitions=1)
        )
        # No true matches exist: precision 0, recall (vacuous) 1.
        quality = result.qualities[0]
        assert quality.precision == 0.0
        assert quality.recall == 1.0

    def test_all_negative_predictions_on_unlabelled(self):
        dataset = _unlabelled_dataset()
        result = evaluate_matcher(
            ConstantMatcher(0.0), dataset, RunSettings(repetitions=1)
        )
        # Predicting nothing when there is nothing to find is perfect.
        quality = result.qualities[0]
        assert quality.precision == 1.0
        assert quality.recall == 1.0
        assert quality.f1 == 1.0


class TestCollapsingFractions:
    """Fractions that round to one training-source count repeat a cell."""

    @pytest.fixture(scope="class")
    def headphones(self):
        dataset = load_dataset("headphones", scale="small", seed=0)
        assert len(dataset.sources()) == 10
        return dataset

    def _run(self, dataset, fractions):
        runner = ExperimentRunner({"constant": lambda: ConstantMatcher(0.5)})
        return runner.run([dataset], train_fractions=fractions, repetitions=1)

    def test_fractions_with_one_source_count_warn(self, headphones):
        with pytest.warns(UserWarning, match=r"'headphones'.*0\.1 and 0\.2"):
            self._run(headphones, (0.1, 0.2))

    def test_distinct_source_counts_do_not_warn(self, headphones):
        with warnings.catch_warnings():
            warnings.simplefilter("error", UserWarning)
            results = self._run(headphones, (0.2, 0.8))
        assert len(results) == 2


class TestDuplicateCells:
    """A grid that lists one cell twice is refused, not journaled twice."""

    def _run(self, datasets, fractions, tmp_path):
        runner = ExperimentRunner({"constant": lambda: ConstantMatcher(0.5)})
        return runner.run(
            datasets,
            train_fractions=fractions,
            repetitions=2,
            journal=RunJournal(tmp_path / "run.jsonl"),
        )

    def test_repeated_fraction_is_rejected(self, tiny_headphones, tmp_path):
        with pytest.raises(ConfigurationError, match="train fraction 0.5 is listed twice"):
            self._run([tiny_headphones], (0.5, 0.5), tmp_path)
        assert not (tmp_path / "run.jsonl").exists()

    def test_repeated_dataset_is_rejected(self, tiny_headphones, tmp_path):
        with pytest.raises(ConfigurationError, match="'headphones' is listed twice"):
            self._run([tiny_headphones, tiny_headphones], (0.5,), tmp_path)
        assert not (tmp_path / "run.jsonl").exists()

    def test_same_name_other_content_is_a_distinct_cell(
        self, tiny_headphones, tmp_path
    ):
        other = tiny_headphones.restrict_to_sources(tiny_headphones.sources()[:-1])
        assert other.name == tiny_headphones.name
        results = self._run([tiny_headphones, other], (0.5,), tmp_path)
        assert len(results) == 2
