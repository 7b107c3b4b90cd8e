"""Tests for the experiment runner, reporting and transfer learning."""

import re

import numpy as np
import pytest

from repro.core.api import Matcher
from repro.data.pairs import build_pairs
from repro.datasets import build_domain_embeddings, load_dataset
from repro.errors import ConfigurationError
from repro.evaluation import (
    ExperimentRunner,
    RunSettings,
    evaluate_matcher,
    format_table2,
    render_results_table,
    run_transfer_experiment,
)
from repro.text.normalize import token_set


class OracleMatcher(Matcher):
    """Scores pairs by ground truth -- a perfect matcher for harness tests."""

    name = "Oracle"
    is_supervised = False

    def score_pairs(self, dataset, pairs):
        return np.array(
            [1.0 if dataset.is_match(p.left, p.right) else 0.0 for p in pairs]
        )


class TokenMatcher(Matcher):
    """Unsupervised token-equality matcher (imperfect on purpose)."""

    name = "Token"
    is_supervised = False

    def score_pairs(self, dataset, pairs):
        return np.array(
            [
                1.0 if token_set(p.left.name) == token_set(p.right.name) else 0.0
                for p in pairs
            ]
        )


class RecordingMatcher(Matcher):
    """Supervised matcher that records what it was fitted on."""

    name = "Recorder"
    is_supervised = True

    def __init__(self):
        self.training_sets = []

    def fit(self, dataset, training_pairs):
        self.training_sets.append(training_pairs)

    def score_pairs(self, dataset, pairs):
        return np.zeros(len(pairs))


class TestEvaluateMatcher:
    def test_oracle_is_perfect(self, tiny_headphones):
        result = evaluate_matcher(
            OracleMatcher(), tiny_headphones, RunSettings(repetitions=2)
        )
        assert result.precision == 1.0
        assert result.recall == 1.0
        assert result.f1 == 1.0

    def test_repetitions_recorded(self, tiny_headphones):
        result = evaluate_matcher(
            TokenMatcher(), tiny_headphones, RunSettings(repetitions=3)
        )
        assert len(result.qualities) + result.skipped_repetitions == 3

    def test_supervised_fitted_per_repetition(self, tiny_headphones):
        matcher = RecordingMatcher()
        result = evaluate_matcher(matcher, tiny_headphones, RunSettings(repetitions=3))
        assert len(matcher.training_sets) == len(result.qualities)

    def test_training_pairs_use_negative_ratio(self, tiny_headphones):
        matcher = RecordingMatcher()
        evaluate_matcher(
            matcher,
            tiny_headphones,
            RunSettings(repetitions=1, train_fraction=0.8, negative_ratio=2.0),
        )
        training = matcher.training_sets[0]
        positives = len(training.positives())
        assert len(training.negatives()) <= 2 * positives + 1

    def test_training_pairs_within_train_sources_only(self, tiny_headphones):
        matcher = RecordingMatcher()
        evaluate_matcher(matcher, tiny_headphones, RunSettings(repetitions=1))
        training = matcher.training_sets[0]
        sources = {ref.source for ref in training.refs()}
        assert len(sources) >= 2

    def test_settings_validation(self):
        with pytest.raises(ConfigurationError):
            RunSettings(train_fraction=0.0)
        with pytest.raises(ConfigurationError):
            RunSettings(repetitions=0)
        with pytest.raises(ConfigurationError):
            RunSettings(negative_ratio=-1.0)

    def test_describe(self, tiny_headphones):
        result = evaluate_matcher(
            OracleMatcher(), tiny_headphones, RunSettings(repetitions=1)
        )
        text = result.describe()
        assert "Oracle" in text and "headphones" in text

    def test_f1_std(self, tiny_headphones):
        result = evaluate_matcher(
            TokenMatcher(), tiny_headphones, RunSettings(repetitions=3)
        )
        assert result.f1_std >= 0.0


class TestRunner:
    def test_grid_shape(self, tiny_headphones, tiny_cameras):
        runner = ExperimentRunner(
            {"oracle": OracleMatcher, "token": TokenMatcher}
        )
        results = runner.run(
            [tiny_headphones, tiny_cameras],
            train_fractions=[0.5],
            repetitions=1,
        )
        assert len(results) == 4
        names = {result.matcher_name for result in results}
        assert names == {"oracle", "token"}

    def test_empty_factories_rejected(self):
        with pytest.raises(ConfigurationError):
            ExperimentRunner({})


class TestBlockedGrid:
    """Candidate-policy evaluation: pruned universes, honest metrics."""

    def _run(self, dataset, label, repetitions=2):
        from repro.blocking import CandidatePolicy

        runner = ExperimentRunner({"oracle": OracleMatcher})
        return runner.run(
            [dataset],
            train_fractions=[0.5],
            repetitions=repetitions,
            policy=CandidatePolicy.from_label(label),
        )[0]

    def test_blocked_result_carries_policy_stats(self, tiny_headphones):
        from repro.blocking import CandidatePolicy
        from repro.core import PairUniverse

        result = self._run(tiny_headphones, "minhash")
        stats = PairUniverse(
            tiny_headphones, CandidatePolicy.from_label("minhash")
        ).blocking_stats()
        assert result.pair_recall == pytest.approx(stats["pair_recall"])
        assert result.reduction_ratio == pytest.approx(stats["reduction_ratio"])
        assert "blocking:" in result.describe()

    def test_lossless_policy_keeps_oracle_perfect(self, tiny_headphones):
        # minhash keeps every true pair on this dataset, so pruning the
        # candidate set must not cost the oracle anything.
        result = self._run(tiny_headphones, "minhash")
        assert result.pair_recall == 1.0
        assert result.recall == 1.0
        assert result.f1 == 1.0

    def test_pruned_true_matches_score_as_misses(self, tiny_headphones):
        # The token policy drops true pairs (pair recall well below 1);
        # an oracle scoring only surviving candidates must not be
        # credited with perfect recall against the full ground truth.
        result = self._run(tiny_headphones, "token", repetitions=3)
        assert result.pair_recall < 1.0
        assert result.recall < 1.0
        assert result.precision == 1.0  # pruning never adds false positives

    def test_null_policy_leaves_results_unannotated(self, tiny_headphones):
        result = self._run(tiny_headphones, "null")
        assert result.pair_recall is None
        assert result.reduction_ratio is None
        assert "blocking:" not in result.describe()

    def test_as_row_includes_blocking_columns(self, tiny_headphones):
        row = self._run(tiny_headphones, "minhash").as_row()
        assert row["pair_recall"] == 1.0
        assert 0.0 < row["reduction_ratio"] < 1.0
        assert "pair_recall" not in self._run(tiny_headphones, "null").as_row()

    def test_render_table_adds_columns_only_when_blocked(self, tiny_headphones):
        blocked = render_results_table([self._run(tiny_headphones, "minhash")])
        assert "pairR" in blocked and "redux" in blocked
        unblocked = render_results_table([self._run(tiny_headphones, "null")])
        assert "pairR" not in unblocked


class TestTrainSources:
    """Rows report how many sources each repetition trained on."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_collapsing_fractions_report_one_count(self, workers):
        dataset = load_dataset("headphones", scale="small", seed=0)
        assert len(dataset.sources()) == 10
        runner = ExperimentRunner({"oracle": OracleMatcher})
        with pytest.warns(UserWarning, match="both train on 2 of 10"):
            results = runner.run(
                [dataset],
                train_fractions=[0.1, 0.2, 0.8],
                repetitions=1,
                workers=workers,
            )
        assert [r.as_row()["train_sources"] for r in results] == [2, 2, 8]
        table = render_results_table(results).splitlines()
        assert "train#" in table[0]
        assert [line.split()[3] for line in table[2:]] == ["2", "2", "8"]
        # What `repro evaluate` prints: 10% and 20% name the same count.
        assert [
            re.search(r"\((\d+) train sources\)", r.describe()).group(1)
            for r in results
        ] == ["2", "2", "8"]


class TestReporting:
    def _results(self, tiny_headphones):
        runner = ExperimentRunner({"oracle": OracleMatcher, "token": TokenMatcher})
        return runner.run([tiny_headphones], train_fractions=[0.5], repetitions=1)

    def test_flat_table(self, tiny_headphones):
        text = render_results_table(self._results(tiny_headphones))
        assert "oracle" in text and "headphones" in text

    def test_table2_best_marked(self, tiny_headphones):
        text = format_table2(self._results(tiny_headphones), title="demo")
        assert "demo" in text
        assert "*" in text  # the best F1 per row carries the bold marker

    def test_table2_missing_cells_dashed(self, tiny_headphones):
        results = self._results(tiny_headphones)
        text = format_table2(results, systems=["oracle", "token", "ghost"])
        assert "-" in text


class TestTransfer:
    def test_oracle_transfers_perfectly(self, tiny_headphones, tiny_cameras):
        result = run_transfer_experiment(
            OracleMatcher(), tiny_headphones, tiny_cameras
        )
        assert result.quality.f1 == 1.0
        assert result.source_dataset == "headphones"
        assert result.target_dataset == "cameras"

    def test_leapme_transfer_runs(self, tiny_headphones, tiny_cameras):
        from repro.core import LeapmeConfig, LeapmeMatcher
        from repro.nn.schedule import TrainingSchedule

        embeddings = build_domain_embeddings(["headphones", "cameras"], scale="tiny")
        matcher = LeapmeMatcher(
            embeddings,
            config=LeapmeConfig(
                hidden_sizes=(32,),
                schedule=TrainingSchedule.constant(5, 1e-3),
            ),
        )
        result = run_transfer_experiment(matcher, tiny_headphones, tiny_cameras)
        # Cross-domain transfer must do clearly better than random guessing.
        assert result.quality.f1 > 0.2

    def test_describe(self, tiny_headphones, tiny_cameras):
        result = run_transfer_experiment(OracleMatcher(), tiny_headphones, tiny_cameras)
        assert "headphones -> cameras" in result.describe()
