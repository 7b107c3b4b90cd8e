"""Tests for the LEAPME classifier and end-to-end matcher."""

import pickle

import numpy as np
import pytest

from repro.core import (
    FeatureConfig,
    FeatureKinds,
    FeatureScope,
    LeapmeClassifier,
    LeapmeConfig,
    LeapmeMatcher,
)
from repro.data.pairs import build_pairs, sample_training_pairs
from repro.data.splits import split_sources
from repro.errors import ConfigurationError, NotFittedError
from repro.evaluation.metrics import evaluate_scores
from repro.nn.schedule import TrainingSchedule

FAST = LeapmeConfig(
    hidden_sizes=(32, 16),
    schedule=TrainingSchedule.from_pairs([(10, 1e-3), (3, 1e-4)]),
)


def _separable(rng, n=200):
    half = n // 2
    x0 = rng.standard_normal((half, 6)) + 1.5
    x1 = rng.standard_normal((half, 6)) - 1.5
    return np.vstack([x0, x1]), np.array([1] * half + [0] * half)


class TestLeapmeClassifier:
    def test_learns(self, rng):
        features, labels = _separable(rng)
        classifier = LeapmeClassifier(FAST).fit(features, labels)
        predictions = classifier.predict(features)
        assert (predictions == labels).mean() > 0.9

    def test_scores_in_unit_interval(self, rng):
        features, labels = _separable(rng)
        classifier = LeapmeClassifier(FAST).fit(features, labels)
        scores = classifier.match_scores(features)
        assert ((scores >= 0) & (scores <= 1)).all()

    def test_not_fitted(self):
        with pytest.raises(NotFittedError):
            LeapmeClassifier().match_scores(np.zeros((1, 5)))

    def test_empty_scoring_batch(self, rng):
        features, labels = _separable(rng)
        classifier = LeapmeClassifier(FAST).fit(features, labels)
        assert classifier.match_scores(np.zeros((0, 6))).shape == (0,)

    def test_scoring_leaves_the_classifier_unchanged_in_size(self, rng):
        features, labels = _separable(rng)
        classifier = LeapmeClassifier(FAST).fit(features, labels)
        before = len(pickle.dumps(classifier))
        classifier.match_scores(rng.standard_normal((10_000, 6)))
        # Inference pins nothing: no scored matrix stays in the layers.
        assert len(pickle.dumps(classifier)) == before

    def test_paper_defaults(self):
        config = LeapmeConfig()
        assert config.hidden_sizes == (128, 64)
        assert config.batch_size == 32
        assert config.schedule.total_epochs == 20
        assert config.negative_ratio == 2.0

    def test_history_recorded(self, rng):
        features, labels = _separable(rng)
        classifier = LeapmeClassifier(FAST).fit(features, labels)
        assert classifier.history is not None
        assert classifier.history.epochs == 13

    def test_scaling_can_be_disabled(self, rng):
        features, labels = _separable(rng)
        config = LeapmeConfig(
            hidden_sizes=(16,),
            schedule=TrainingSchedule.constant(12, 1e-2),
            scale_features=False,
        )
        classifier = LeapmeClassifier(config).fit(features, labels)
        assert classifier._scaler is None
        assert (classifier.predict(features) == labels).mean() > 0.85

    def test_invalid_config(self):
        with pytest.raises(ConfigurationError):
            LeapmeConfig(hidden_sizes=())
        with pytest.raises(ConfigurationError):
            LeapmeConfig(batch_size=0)
        with pytest.raises(ConfigurationError):
            LeapmeConfig(decision_threshold=1.5)


class TestLeapmeMatcher:
    def test_end_to_end_quality(self, tiny_headphones, tiny_embeddings, rng):
        dataset = tiny_headphones
        split = split_sources(dataset, 0.7, rng)
        training = sample_training_pairs(
            build_pairs(dataset, list(split.train_sources), within=True), rng=rng
        )
        test = build_pairs(dataset, list(split.train_sources), within=False)
        matcher = LeapmeMatcher(tiny_embeddings, config=FAST)
        matcher.prepare(dataset)
        matcher.fit(dataset, training)
        quality = evaluate_scores(
            matcher.score_pairs(dataset, test.pairs), test.labels()
        )
        assert quality.f1 > 0.5

    def test_score_before_fit_raises(self, tiny_headphones, tiny_embeddings):
        matcher = LeapmeMatcher(tiny_embeddings)
        pairs = build_pairs(tiny_headphones).pairs[:3]
        with pytest.raises(NotFittedError):
            matcher.score_pairs(tiny_headphones, pairs)

    def test_match_builds_similarity_graph(
        self, tiny_headphones, tiny_embeddings, rng
    ):
        dataset = tiny_headphones
        training = sample_training_pairs(build_pairs(dataset), rng=rng)
        matcher = LeapmeMatcher(tiny_embeddings, config=FAST)
        matcher.fit(dataset, training)
        pairs = build_pairs(dataset).pairs[:50]
        graph = matcher.match(dataset, pairs)
        assert len(graph) == 50
        for edge in graph:
            assert 0.0 <= edge.score <= 1.0

    def test_name_reflects_config(self, tiny_embeddings):
        matcher = LeapmeMatcher(
            tiny_embeddings,
            FeatureConfig(FeatureScope.NAMES, FeatureKinds.EMBEDDING),
        )
        assert "names/embedding" in matcher.name

    def test_prepare_is_idempotent(self, tiny_headphones, tiny_embeddings):
        matcher = LeapmeMatcher(tiny_embeddings)
        matcher.prepare(tiny_headphones)
        table = matcher._table
        matcher._ensure_table(tiny_headphones)
        assert matcher._table is table

    def test_classifier_property_guard(self, tiny_embeddings):
        with pytest.raises(NotFittedError):
            LeapmeMatcher(tiny_embeddings).classifier
