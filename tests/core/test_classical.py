"""Tests for the classical pair-classifier adapter."""

import numpy as np
import pytest

from repro.core import LeapmeMatcher
from repro.core.classical import ClassicalPairClassifier
from repro.data.pairs import build_pairs, sample_training_pairs
from repro.errors import NotFittedError
from repro.ml import DecisionTreeClassifier, LogisticRegression


def _separable(rng, n=120):
    half = n // 2
    x0 = rng.standard_normal((half, 5)) + 2
    x1 = rng.standard_normal((half, 5)) - 2
    return np.vstack([x0, x1]), np.array([1] * half + [0] * half)


class TestClassicalPairClassifier:
    def test_fit_and_score(self, rng):
        features, labels = _separable(rng)
        classifier = ClassicalPairClassifier(DecisionTreeClassifier(max_depth=4))
        classifier.fit(features, labels)
        scores = classifier.match_scores(features)
        assert ((scores >= 0) & (scores <= 1)).all()
        assert ((scores >= 0.5).astype(int) == labels).mean() > 0.9

    def test_positive_column_resolution(self, rng):
        # Labels are {0, 1}; scores must be P(label == 1).
        features, labels = _separable(rng)
        classifier = ClassicalPairClassifier(LogisticRegression(max_iter=200))
        classifier.fit(features, labels)
        scores = classifier.match_scores(features)
        assert scores[labels == 1].mean() > scores[labels == 0].mean()

    def test_not_fitted(self):
        classifier = ClassicalPairClassifier(DecisionTreeClassifier())
        with pytest.raises(NotFittedError):
            classifier.match_scores(np.zeros((1, 5)))

    def test_empty_batch(self, rng):
        features, labels = _separable(rng)
        classifier = ClassicalPairClassifier(DecisionTreeClassifier(max_depth=3))
        classifier.fit(features, labels)
        assert classifier.match_scores(np.zeros((0, 5))).shape == (0,)

    def test_scaling_optional(self, rng):
        features, labels = _separable(rng)
        classifier = ClassicalPairClassifier(
            DecisionTreeClassifier(max_depth=3), scale_features=False
        )
        classifier.fit(features, labels)
        assert classifier._scaler is None


class TestMatcherWithClassicalClassifier:
    def test_end_to_end(self, tiny_headphones, tiny_embeddings, rng):
        matcher = LeapmeMatcher(
            tiny_embeddings,
            classifier_factory=lambda: ClassicalPairClassifier(
                DecisionTreeClassifier(max_depth=6)
            ),
        )
        training = sample_training_pairs(build_pairs(tiny_headphones), rng=rng)
        matcher.fit(tiny_headphones, training)
        scores = matcher.score_pairs(tiny_headphones, training)
        labels = training.labels()
        # Training-set separation sanity check.
        assert scores[labels == 1].mean() > scores[labels == 0].mean()
