"""Nezhadi et al.: supervised ontology alignment over string similarities.

The original proposal trains classical classifiers (decision trees,
AdaBoost, k-NN, naive Bayes) on vectors of concept-similarity measures.
Its defining design point relative to LEAPME -- stated in the paper's
related work -- is that "instance similarities or word embeddings have
not been utilized": its features are string-level name similarities only.

Feature vector: the eight Table I name distances plus the token-set
Jaccard distance.  The classifier family is pluggable; AdaBoost over
decision stumps is the default (the strongest in the original study).
"""

from __future__ import annotations

import numpy as np

from repro.core.api import Matcher, Pairs, name_pairs, pair_ends
from repro.core.pipeline import name_distance_block
from repro.data.model import Dataset
from repro.data.pairs import PairSet
from repro.errors import ConfigurationError, NotFittedError
from repro.ml.adaboost import AdaBoostClassifier
from repro.ml.base import Classifier
from repro.ml.knn import KNeighborsClassifier
from repro.ml.naive_bayes import GaussianNaiveBayes
from repro.ml.tree import DecisionTreeClassifier
from repro.text.normalize import token_set

_CLASSIFIERS = {
    "adaboost": lambda: AdaBoostClassifier(n_estimators=40, max_depth=2),
    "tree": lambda: DecisionTreeClassifier(max_depth=8),
    "knn": lambda: KNeighborsClassifier(n_neighbors=5, weights="distance"),
    "naive_bayes": GaussianNaiveBayes,
}


def _jaccard_distance(tokens_left: frozenset[str], tokens_right: frozenset[str]) -> float:
    if tokens_left or tokens_right:
        return 1.0 - len(tokens_left & tokens_right) / len(tokens_left | tokens_right)
    return 0.0


class NezhadiMatcher(Matcher):
    """Supervised string-similarity matcher (Nezhadi et al. style)."""

    is_supervised = True

    def __init__(self, classifier: str = "adaboost", threshold: float = 0.6) -> None:
        if classifier not in _CLASSIFIERS:
            known = ", ".join(sorted(_CLASSIFIERS))
            raise ConfigurationError(
                f"unknown classifier {classifier!r}; known: {known}"
            )
        self.name = "Nezhadi" if classifier == "adaboost" else f"Nezhadi[{classifier}]"
        self.classifier_kind = classifier
        self.threshold = threshold
        self._model: Classifier | None = None

    @staticmethod
    def _features(pairs: Pairs) -> np.ndarray:
        """The 9 features of each pair, computed once per distinct name pair.

        The eight distances come from the process-wide distance memo
        (:func:`~repro.core.pipeline.name_distance_block`, float64).
        """
        names, distinct, inverse = name_pairs(*pair_ends(pairs), ordered=False)
        tokens = {name: token_set(name) for name in names}
        jaccard = [_jaccard_distance(tokens[a], tokens[b]) for a, b in distinct]
        return np.column_stack([name_distance_block(distinct), jaccard])[inverse]

    @property
    def is_fitted(self) -> bool:
        """Whether the pair classifier has been trained."""
        return self._model is not None

    def fit(self, dataset: Dataset, training_pairs: PairSet) -> None:
        features = self._features(training_pairs)
        self._model = _CLASSIFIERS[self.classifier_kind]()
        self._model.fit(features, training_pairs.labels())

    def score_pairs(self, dataset: Dataset, pairs: Pairs) -> np.ndarray:
        if self._model is None:
            raise NotFittedError("NezhadiMatcher must be fitted before scoring")
        features = self._features(pairs)
        probabilities = self._model.predict_proba(features)
        positive_column = int(np.argmax(self._model.classes_ == 1))
        return probabilities[:, positive_column]
