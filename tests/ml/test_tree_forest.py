"""Tests for the decision tree and AdaBoost."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, NotFittedError
from repro.ml.adaboost import AdaBoostClassifier
from repro.ml.tree import DecisionTreeClassifier


def _blobs(rng, n=200, separation=3.0):
    half = n // 2
    x0 = rng.standard_normal((half, 3)) + separation
    x1 = rng.standard_normal((half, 3)) - separation
    inputs = np.vstack([x0, x1])
    labels = np.array([0] * half + [1] * half)
    return inputs, labels


def _xor(rng, n=400):
    """XOR: not linearly separable, needs depth >= 2."""
    inputs = rng.uniform(-1, 1, size=(n, 2))
    labels = ((inputs[:, 0] > 0) ^ (inputs[:, 1] > 0)).astype(int)
    return inputs, labels


class TestDecisionTree:
    def test_fits_separable_data(self, rng):
        inputs, labels = _blobs(rng)
        tree = DecisionTreeClassifier(max_depth=3).fit(inputs, labels)
        assert (tree.predict(inputs) == labels).mean() > 0.98

    def test_solves_xor(self, rng):
        inputs, labels = _xor(rng)
        tree = DecisionTreeClassifier(max_depth=4).fit(inputs, labels)
        assert (tree.predict(inputs) == labels).mean() > 0.95

    def test_depth_limit_respected(self, rng):
        inputs, labels = _xor(rng)
        tree = DecisionTreeClassifier(max_depth=2).fit(inputs, labels)
        assert tree.depth() <= 2

    def test_pure_node_becomes_leaf(self):
        inputs = np.array([[0.0], [1.0], [2.0]])
        labels = np.array([1, 1, 1])
        tree = DecisionTreeClassifier().fit(inputs, labels)
        assert tree.depth() == 0
        assert tree.node_count() == 1

    def test_probabilities_sum_to_one(self, rng):
        inputs, labels = _blobs(rng)
        tree = DecisionTreeClassifier(max_depth=3).fit(inputs, labels)
        probs = tree.predict_proba(inputs)
        assert np.allclose(probs.sum(axis=1), 1.0)

    def test_arbitrary_label_values(self, rng):
        inputs, labels = _blobs(rng)
        renamed = np.where(labels == 0, 7, 42)
        tree = DecisionTreeClassifier(max_depth=3).fit(inputs, renamed)
        assert set(np.unique(tree.predict(inputs))) <= {7, 42}

    def test_constant_features_yield_leaf(self):
        inputs = np.ones((10, 2))
        labels = np.array([0, 1] * 5)
        tree = DecisionTreeClassifier().fit(inputs, labels)
        assert tree.node_count() == 1

    def test_min_samples_split(self, rng):
        inputs, labels = _blobs(rng, n=6)
        tree = DecisionTreeClassifier(min_samples_split=100).fit(inputs, labels)
        assert tree.node_count() == 1

    def test_weighted_fit_respects_weights(self):
        # Two conflicting points; the heavier one wins the leaf.
        inputs = np.array([[0.0], [0.0]])
        labels = np.array([0, 1])
        tree = DecisionTreeClassifier().fit_weighted(
            inputs, labels, np.array([0.9, 0.1])
        )
        assert tree.predict(np.array([[0.0]]))[0] == 0

    def test_not_fitted(self):
        with pytest.raises(NotFittedError):
            DecisionTreeClassifier().predict(np.zeros((1, 2)))

    def test_invalid_config(self):
        with pytest.raises(ConfigurationError):
            DecisionTreeClassifier(max_depth=0)
        with pytest.raises(ConfigurationError):
            DecisionTreeClassifier(min_samples_split=1)

    def test_three_classes(self, rng):
        inputs = np.vstack(
            [
                rng.standard_normal((50, 2)) + offset
                for offset in ([0, 0], [6, 6], [-6, 6])
            ]
        )
        labels = np.repeat([0, 1, 2], 50)
        tree = DecisionTreeClassifier(max_depth=4).fit(inputs, labels)
        assert (tree.predict(inputs) == labels).mean() > 0.95


def _walked_proba(tree, inputs):
    """The per-row walk prediction once was: one root-to-leaf path per row."""
    probs = np.empty((len(inputs), tree._n_encoded_classes))
    for i, row in enumerate(inputs):
        node = tree._root
        while not node.is_leaf:
            node = node.left if row[node.feature] <= node.threshold else node.right
        probs[i] = node.probabilities
    return probs


def _thresholds(node):
    if node.is_leaf:
        return []
    return [node.threshold, *_thresholds(node.left), *_thresholds(node.right)]


class TestRoutedPrediction:
    """Index-array routing equals the per-row walk, bit for bit."""

    @pytest.mark.parametrize("max_depth", [1, 3, 8, None])
    def test_random_inputs(self, rng, max_depth):
        inputs = rng.standard_normal((300, 4))
        labels = rng.integers(0, 3, size=300)
        tree = DecisionTreeClassifier(max_depth=max_depth).fit(inputs, labels)
        queries = rng.standard_normal((500, 4))
        assert np.array_equal(tree._predict_proba(queries), _walked_proba(tree, queries))

    def test_ties_at_the_threshold(self, rng):
        inputs, labels = _xor(rng)
        inputs = np.round(inputs, 1)
        tree = DecisionTreeClassifier(max_depth=5).fit(inputs, labels)
        cuts = np.array(_thresholds(tree._root))
        assert len(cuts) > 1
        queries = rng.choice(cuts, size=(400, 2))
        queries[::3] = np.nextafter(queries[::3], np.inf)
        routed = tree._predict_proba(queries)
        assert np.array_equal(routed, _walked_proba(tree, queries))

    def test_single_leaf_tree(self, rng):
        tree = DecisionTreeClassifier().fit(rng.standard_normal((20, 2)), np.ones(20, dtype=int))
        assert tree.node_count() == 1
        queries = rng.standard_normal((7, 2))
        assert np.array_equal(tree._predict_proba(queries), _walked_proba(tree, queries))
        assert tree._predict_proba(queries[:0]).shape == (0, 1)


class TestAdaBoost:
    def test_fits_separable_data(self, rng):
        inputs, labels = _blobs(rng)
        model = AdaBoostClassifier(n_estimators=10).fit(inputs, labels)
        assert (model.predict(inputs) == labels).mean() > 0.98

    def test_boosting_beats_single_stump_on_xor(self, rng):
        inputs, labels = _xor(rng)
        stump = DecisionTreeClassifier(max_depth=1).fit(inputs, labels)
        boosted = AdaBoostClassifier(n_estimators=50, max_depth=2).fit(inputs, labels)
        stump_acc = (stump.predict(inputs) == labels).mean()
        boosted_acc = (boosted.predict(inputs) == labels).mean()
        assert boosted_acc > stump_acc

    def test_perfect_learner_short_circuits(self, rng):
        inputs, labels = _blobs(rng, separation=10.0)
        model = AdaBoostClassifier(n_estimators=50, max_depth=3).fit(inputs, labels)
        assert model.n_fitted_estimators == 1

    def test_probabilities_valid(self, rng):
        inputs, labels = _blobs(rng)
        model = AdaBoostClassifier(n_estimators=5).fit(inputs, labels)
        probs = model.predict_proba(inputs)
        assert np.allclose(probs.sum(axis=1), 1.0)
        assert (probs >= 0).all()

    def test_invalid_config(self):
        with pytest.raises(ConfigurationError):
            AdaBoostClassifier(n_estimators=0)
        with pytest.raises(ConfigurationError):
            AdaBoostClassifier(learning_rate=0.0)
