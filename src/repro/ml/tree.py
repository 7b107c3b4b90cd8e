"""CART decision tree with Gini impurity.

The workhorse of the Nezhadi baseline.  Split search is vectorised with a
sorted cumulative-count sweep per feature, so the tree stays usable on the
tens of thousands of property pairs produced by the camera dataset.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.ml.base import Classifier


@dataclass
class _Node:
    """A tree node; leaves carry class probabilities, splits carry children."""

    probabilities: np.ndarray
    feature: int = -1
    threshold: float = 0.0
    left: "._Node | None" = None
    right: "._Node | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.left is None


def _gini_from_counts(counts: np.ndarray, totals: np.ndarray) -> np.ndarray:
    """Gini impurity for rows of class counts with given row totals."""
    with np.errstate(divide="ignore", invalid="ignore"):
        fractions = counts / totals[:, None]
        gini = 1.0 - np.nansum(fractions * fractions, axis=1)
    gini[totals == 0] = 0.0
    return gini


class DecisionTreeClassifier(Classifier):
    """CART-style binary-split decision tree.

    Parameters
    ----------
    max_depth:
        Maximum tree depth (None for unbounded).
    min_samples_split:
        Minimum samples a node must hold before attempting a split.
    min_impurity_decrease:
        Splits that reduce impurity by less than this are rejected.
    """

    def __init__(
        self,
        max_depth: int | None = None,
        min_samples_split: int = 2,
        min_impurity_decrease: float = 0.0,
    ) -> None:
        super().__init__()
        if max_depth is not None and max_depth < 1:
            raise ConfigurationError(f"max_depth must be >= 1, got {max_depth}")
        if min_samples_split < 2:
            raise ConfigurationError(
                f"min_samples_split must be >= 2, got {min_samples_split}"
            )
        if min_impurity_decrease < 0:
            raise ConfigurationError("min_impurity_decrease must be non-negative")
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_impurity_decrease = min_impurity_decrease
        self._root: _Node | None = None
        self._n_encoded_classes = 0

    # -- fitting -----------------------------------------------------------
    def _fit(self, inputs: np.ndarray, labels: np.ndarray) -> None:
        self._n_encoded_classes = int(labels.max()) + 1
        sample_weight = np.ones(len(labels))
        self._root = self._grow(inputs, labels, sample_weight, depth=0)

    def fit_weighted(
        self,
        inputs: np.ndarray,
        labels: np.ndarray,
        sample_weight: np.ndarray,
    ) -> "DecisionTreeClassifier":
        """Fit with per-sample weights (used by AdaBoost).

        Labels must already be contiguous integers starting at 0.
        """
        inputs = np.asarray(inputs, dtype=np.float64)
        labels = np.asarray(labels, dtype=np.int64)
        sample_weight = np.asarray(sample_weight, dtype=np.float64)
        self.classes_ = np.unique(labels)
        self._n_encoded_classes = int(labels.max()) + 1
        # Re-encode so probabilities index into classes_ positions.
        encoder = {cls: i for i, cls in enumerate(self.classes_)}
        encoded = np.array([encoder[label] for label in labels], dtype=np.int64)
        self._n_encoded_classes = len(self.classes_)
        self._root = self._grow(inputs, encoded, sample_weight, depth=0)
        return self

    def _leaf(self, labels: np.ndarray, weights: np.ndarray) -> _Node:
        counts = np.bincount(labels, weights=weights, minlength=self._n_encoded_classes)
        total = counts.sum()
        probs = counts / total if total > 0 else np.full_like(counts, 1.0 / len(counts))
        return _Node(probabilities=probs)

    def _grow(
        self,
        inputs: np.ndarray,
        labels: np.ndarray,
        weights: np.ndarray,
        depth: int,
    ) -> _Node:
        node = self._leaf(labels, weights)
        if (
            len(labels) < self.min_samples_split
            or (self.max_depth is not None and depth >= self.max_depth)
            or np.all(labels == labels[0])
        ):
            return node
        split = self._best_split(inputs, labels, weights)
        if split is None:
            return node
        feature, threshold = split
        mask = inputs[:, feature] <= threshold
        node.feature = feature
        node.threshold = threshold
        node.left = self._grow(inputs[mask], labels[mask], weights[mask], depth + 1)
        node.right = self._grow(inputs[~mask], labels[~mask], weights[~mask], depth + 1)
        return node

    def _best_split(
        self,
        inputs: np.ndarray,
        labels: np.ndarray,
        weights: np.ndarray,
    ) -> tuple[int, float] | None:
        """Return the (feature, threshold) with the largest impurity decrease."""
        n, n_features = inputs.shape
        total_weight = weights.sum()
        parent_counts = np.bincount(labels, weights=weights, minlength=self._n_encoded_classes)
        parent_gini = 1.0 - np.sum((parent_counts / total_weight) ** 2)
        best_gain = self.min_impurity_decrease
        best: tuple[int, float] | None = None
        onehot = np.zeros((n, self._n_encoded_classes))
        onehot[np.arange(n), labels] = weights
        for feature in range(n_features):
            column = inputs[:, feature]
            order = np.argsort(column, kind="stable")
            sorted_values = column[order]
            # Cumulative weighted class counts left of each cut position.
            left_counts = np.cumsum(onehot[order], axis=0)
            left_totals = left_counts.sum(axis=1)
            right_counts = left_counts[-1] - left_counts
            right_totals = left_totals[-1] - left_totals
            # A cut is valid only between distinct consecutive values.
            valid = sorted_values[:-1] < sorted_values[1:]
            if not valid.any():
                continue
            gini_left = _gini_from_counts(left_counts[:-1], left_totals[:-1])
            gini_right = _gini_from_counts(right_counts[:-1], right_totals[:-1])
            weighted = (
                left_totals[:-1] * gini_left + right_totals[:-1] * gini_right
            ) / total_weight
            gains = parent_gini - weighted
            gains[~valid] = -np.inf
            cut = int(np.argmax(gains))
            if gains[cut] > best_gain:
                best_gain = float(gains[cut])
                threshold = (sorted_values[cut] + sorted_values[cut + 1]) / 2.0
                best = (feature, float(threshold))
        return best

    # -- prediction ---------------------------------------------------------
    def _predict_proba(self, inputs: np.ndarray) -> np.ndarray:
        probs = np.empty((len(inputs), self._n_encoded_classes))
        routes = [(self._root, np.arange(len(inputs)))]
        for node, rows in routes:  # splits append their children; leaves write last
            probs[rows] = node.probabilities
            if not node.is_leaf:
                left = inputs[rows, node.feature] <= node.threshold
                routes += [(node.left, rows[left]), (node.right, rows[~left])]
        return probs

    def depth(self) -> int:
        """Actual depth of the fitted tree (0 for a single leaf)."""

        def _depth(node: _Node | None) -> int:
            if node is None or node.is_leaf:
                return 0
            return 1 + max(_depth(node.left), _depth(node.right))

        return _depth(self._root)

    def node_count(self) -> int:
        """Total number of nodes in the fitted tree."""

        def _count(node: _Node | None) -> int:
            if node is None:
                return 0
            if node.is_leaf:
                return 1
            return 1 + _count(node.left) + _count(node.right)

        return _count(self._root)
