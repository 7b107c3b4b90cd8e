"""Tests for the resilient classifier ladder, public fitted state and
the content-fingerprint table cache."""

import numpy as np
import pytest

from repro.core import (
    FittedState,
    LeapmeConfig,
    LeapmeMatcher,
    ResilientClassifier,
)
from repro.core.classifier import (
    DEGRADATION_CLASSICAL_FALLBACK,
    DEGRADATION_REDUCED_LR,
    LeapmeClassifier,
)
from repro.data.model import Dataset, PropertyInstance, PropertyRef
from repro.data.pairs import build_pairs, sample_training_pairs
from repro.errors import DataError, NotFittedError, TrainingDivergedError
from repro.nn.schedule import TrainingSchedule
from repro.testing import AlwaysDivergingClassifier

CONFIG = LeapmeConfig(hidden_sizes=(8,), schedule=TrainingSchedule.constant(3, 1e-2))


def _toy_problem(n=60, seed=0):
    rng = np.random.default_rng(seed)
    features = rng.normal(size=(n, 4))
    labels = (features[:, 0] + 0.1 * rng.normal(size=n) > 0).astype(np.int64)
    return features, labels


class DivergeOnFastLR:
    """Primary that diverges unless the learning rate was backed off."""

    def __init__(self, config):
        self.config = config
        self._inner = LeapmeClassifier(config)

    def fit(self, features, labels):
        if self.config.schedule.phases[0].learning_rate > 1e-3:
            raise TrainingDivergedError("too fast")
        self._inner.fit(features, labels)
        return self

    def match_scores(self, features):
        return self._inner.match_scores(features)


class TestResilientLadder:
    def test_healthy_training_reports_no_degradation(self):
        features, labels = _toy_problem()
        classifier = ResilientClassifier(CONFIG).fit(features, labels)
        assert classifier.degradation is None
        scores = classifier.match_scores(features)
        assert scores.shape == (len(features),)
        assert np.isfinite(scores).all()

    def test_reduced_lr_rung(self):
        features, labels = _toy_problem()
        classifier = ResilientClassifier(CONFIG, primary_factory=DivergeOnFastLR)
        classifier.fit(features, labels)
        assert classifier.degradation == DEGRADATION_REDUCED_LR
        assert np.isfinite(classifier.match_scores(features)).all()

    def test_classical_fallback_rung(self):
        features, labels = _toy_problem()
        classifier = ResilientClassifier(
            CONFIG, primary_factory=AlwaysDivergingClassifier
        )
        classifier.fit(features, labels)
        assert classifier.degradation == DEGRADATION_CLASSICAL_FALLBACK
        scores = classifier.match_scores(features)
        assert np.isfinite(scores).all()
        # The logistic fallback still learns this separable problem.
        assert ((scores >= 0.5).astype(int) == labels).mean() > 0.8

    def test_unfitted_raises(self):
        classifier = ResilientClassifier(CONFIG)
        with pytest.raises(NotFittedError):
            classifier.match_scores(np.zeros((1, 4)))

    def test_predict_uses_threshold(self):
        features, labels = _toy_problem()
        classifier = ResilientClassifier(CONFIG).fit(features, labels)
        predictions = classifier.predict(features)
        assert set(np.unique(predictions)) <= {0, 1}

    def test_fallback_state_is_not_serialisable(self):
        features, labels = _toy_problem()
        classifier = ResilientClassifier(
            CONFIG, primary_factory=AlwaysDivergingClassifier
        )
        classifier.fit(features, labels)
        with pytest.raises(DataError):
            classifier.fitted_state()


class TestFittedState:
    def test_accessor_requires_fit(self):
        with pytest.raises(NotFittedError):
            LeapmeClassifier(CONFIG).fitted_state()

    def test_round_trip_through_public_state(self):
        features, labels = _toy_problem()
        trained = LeapmeClassifier(CONFIG).fit(features, labels)
        state = trained.fitted_state()
        assert isinstance(state, FittedState)
        clone = LeapmeClassifier(CONFIG).restore_fitted_state(state)
        np.testing.assert_array_equal(
            clone.match_scores(features), trained.match_scores(features)
        )

    def test_diverged_fit_leaves_classifier_unfitted(self):
        features, labels = _toy_problem()
        classifier = LeapmeClassifier(CONFIG)
        network = classifier._build_network(features.shape[1])
        network.layers[0].parameters()[0][0, 0] = np.inf
        classifier._build_network = lambda n_features: network
        with np.errstate(all="ignore"), pytest.raises(TrainingDivergedError):
            classifier.fit(features, labels)
        with pytest.raises(NotFittedError):
            classifier.fitted_state()


def _named_dataset(name, values):
    instances = [
        PropertyInstance(source=source, property_name=prop, entity_id="e1", value=value)
        for source, prop, value in values
    ]
    alignment = {PropertyRef(source, prop): prop for source, prop, _ in values}
    return Dataset(name=name, instances=instances, alignment=alignment)


class TestTableCacheFingerprint:
    def test_same_name_different_content_rebuilds_table(self, tiny_embeddings):
        first = _named_dataset(
            "shared-name",
            [("a", "color", "red"), ("b", "color", "blue")],
        )
        second = _named_dataset(
            "shared-name",
            [
                ("a", "color", "red"),
                ("b", "color", "blue"),
                ("c", "weight", "10 g"),
            ],
        )
        matcher = LeapmeMatcher(tiny_embeddings, config=CONFIG)
        matcher.prepare(first)
        store_first = matcher.store
        matcher.prepare(second)
        store_second = matcher.store
        assert store_second is not store_first
        assert store_second.serves(second) and not store_second.serves(first)
        # And the store still caches: same dataset, same store object.
        matcher.prepare(second)
        assert matcher.store is store_second

    def test_fingerprint_distinguishes_content(self):
        first = _named_dataset("x", [("a", "p", "1"), ("b", "p", "2")])
        second = _named_dataset(
            "x", [("a", "p", "1"), ("b", "p", "2"), ("c", "q", "3")]
        )
        assert first.fingerprint() != second.fingerprint()
        assert first.fingerprint() == first.fingerprint()

    def test_fingerprint_distinguishes_same_size_content(self):
        # Same name, same instance/alignment counts, same sources --
        # only a value differs.  Structural counts alone would collide.
        first = _named_dataset("x", [("a", "p", "1"), ("b", "p", "2")])
        edited = _named_dataset("x", [("a", "p", "1"), ("b", "p", "999")])
        assert first.fingerprint() != edited.fingerprint()

    def test_fingerprint_distinguishes_alignment_only_change(self):
        base = [("a", "p", "1"), ("b", "q", "2")]
        instances = [
            PropertyInstance(source=s, property_name=p, entity_id="e1", value=v)
            for s, p, v in base
        ]
        matched = Dataset(
            name="x",
            instances=list(instances),
            alignment={
                PropertyRef("a", "p"): "ref1",
                PropertyRef("b", "q"): "ref1",
            },
        )
        unmatched = Dataset(
            name="x",
            instances=list(instances),
            alignment={
                PropertyRef("a", "p"): "ref1",
                PropertyRef("b", "q"): "ref2",
            },
        )
        assert matched.fingerprint() != unmatched.fingerprint()

    def test_fingerprint_is_order_insensitive(self):
        forward = _named_dataset("x", [("a", "p", "1"), ("b", "q", "2")])
        backward = _named_dataset("x", [("b", "q", "2"), ("a", "p", "1")])
        assert forward.fingerprint() == backward.fingerprint()
