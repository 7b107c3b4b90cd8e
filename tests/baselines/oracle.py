"""The per-pair baselines the array implementations are tested against.

Each baseline once walked its request one :class:`LabeledPair` at a
time, kept a private name-keyed memo and, for Nezhadi, computed the
eight name distances through the scalar
:func:`~repro.text.similarity.name_distance_vector`.  Those walks are
kept here, arithmetic unchanged, as the oracles that
``tests/baselines/test_baseline_equivalence.py`` compares every
baseline with.  FCA-Map and LSH prepare whenever the dataset's name
changes, as they did; the tests give each oracle one dataset only.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from repro.data.model import PropertyRef
from repro.embeddings.base import cosine
from repro.errors import NotFittedError
from repro.ml.adaboost import AdaBoostClassifier
from repro.text.jaro import jaro_winkler_similarity
from repro.text.minhash import MinHasher
from repro.text.ngrams import ngram_cosine_distance
from repro.text.normalize import token_set
from repro.text.similarity import name_distance_vector
from repro.text.tokenize import tokenize, words


class AmlOracle:
    """AML: one lexical similarity per pair, token sets memoised by name."""

    def __init__(self, threshold: float = 0.8) -> None:
        self.threshold = threshold
        self._token_sets: dict[str, frozenset[str]] = {}

    def _tokens(self, name: str) -> frozenset[str]:
        cached = self._token_sets.get(name)
        if cached is None:
            cached = token_set(name)
            self._token_sets[name] = cached
        return cached

    def _similarity(self, left: str, right: str) -> float:
        tokens_left = self._tokens(left)
        tokens_right = self._tokens(right)
        if not tokens_left or not tokens_right:
            return 0.0
        if tokens_left == tokens_right:
            return 1.0
        union = len(tokens_left | tokens_right)
        overlap = len(tokens_left & tokens_right) / union
        joined_left = " ".join(sorted(tokens_left))
        joined_right = " ".join(sorted(tokens_right))
        string_sim = jaro_winkler_similarity(joined_left, joined_right)
        return max(overlap, 0.9 * string_sim)

    def score_pairs(self, dataset, pairs) -> np.ndarray:
        scores = np.empty(len(pairs))
        for i, pair in enumerate(pairs):
            scores[i] = self._similarity(pair.left.name, pair.right.name)
        return scores


class FcaMapOracle:
    """FCA-Map: 1 when both refs sit in one object concept, a dict walk."""

    def __init__(self) -> None:
        self._concept_of: dict[PropertyRef, int] = {}
        self._prepared_for: str | None = None

    def prepare(self, dataset) -> None:
        intents: dict[frozenset[str], int] = {}
        self._concept_of = {}
        extents: dict[int, list[PropertyRef]] = defaultdict(list)
        for ref in dataset.properties():
            intent = token_set(ref.name)
            concept = intents.setdefault(intent, len(intents))
            self._concept_of[ref] = concept
            extents[concept].append(ref)
        self._prepared_for = dataset.name

    def score_pairs(self, dataset, pairs) -> np.ndarray:
        if self._prepared_for != dataset.name:
            self.prepare(dataset)
        scores = np.zeros(len(pairs))
        for i, pair in enumerate(pairs):
            left = self._concept_of.get(pair.left)
            right = self._concept_of.get(pair.right)
            if left is not None and left == right:
                scores[i] = 1.0
        return scores


class LshOracle:
    """LSH: per-pair, per-band signature comparison over a ref-keyed dict."""

    def __init__(self, num_hashes: int = 64, band_size: int = 1, seed: int = 0) -> None:
        self.band_size = band_size
        self._hasher = MinHasher(num_hashes=num_hashes, seed=seed)
        self._signatures: dict[PropertyRef, np.ndarray] = {}
        self._prepared_for: str | None = None

    def prepare(self, dataset) -> None:
        self._signatures = {}
        for ref in dataset.properties():
            tokens: set[str] = set()
            for value in dataset.values_of(ref):
                tokens.update(token.lower() for token in tokenize(value))
            self._signatures[ref] = self._hasher.signature(tokens)
        self._prepared_for = dataset.name

    def _candidate(self, sig_a: np.ndarray, sig_b: np.ndarray) -> bool:
        bands = len(sig_a) // self.band_size
        for band in range(bands):
            start = band * self.band_size
            stop = start + self.band_size
            if np.array_equal(sig_a[start:stop], sig_b[start:stop]):
                return True
        return False

    def score_pairs(self, dataset, pairs) -> np.ndarray:
        if self._prepared_for != dataset.name:
            self.prepare(dataset)
        scores = np.zeros(len(pairs))
        for i, pair in enumerate(pairs):
            sig_left = self._signatures[pair.left]
            sig_right = self._signatures[pair.right]
            if not self._candidate(sig_left, sig_right):
                continue
            scores[i] = self._hasher.estimate_jaccard(sig_left, sig_right)
        return scores


def _nezhadi_pair_features(left: str, right: str) -> np.ndarray:
    distances = name_distance_vector(left, right)
    tokens_left = token_set(left)
    tokens_right = token_set(right)
    if tokens_left or tokens_right:
        jaccard = 1.0 - len(tokens_left & tokens_right) / len(tokens_left | tokens_right)
    else:
        jaccard = 0.0
    return np.array(distances + [jaccard])


class NezhadiOracle:
    """Nezhadi: scalar distances per sorted exact name pair, memoised."""

    def __init__(self) -> None:
        self._model: AdaBoostClassifier | None = None
        self._cache: dict[tuple[str, str], np.ndarray] = {}

    def features(self, pairs) -> np.ndarray:
        rows = np.empty((len(pairs), 9))
        for i, pair in enumerate(pairs):
            key = (pair.left.name, pair.right.name)
            if key[0] > key[1]:
                key = (key[1], key[0])
            cached = self._cache.get(key)
            if cached is None:
                cached = _nezhadi_pair_features(*key)
                self._cache[key] = cached
            rows[i] = cached
        return rows

    def fit(self, dataset, training_pairs) -> None:
        features = self.features(training_pairs.pairs)
        self._model = AdaBoostClassifier(n_estimators=40, max_depth=2)
        self._model.fit(features, training_pairs.labels())

    def score_pairs(self, dataset, pairs) -> np.ndarray:
        if self._model is None:
            raise NotFittedError("NezhadiOracle must be fitted before scoring")
        probabilities = self._model.predict_proba(self.features(pairs))
        positive_column = int(np.argmax(self._model.classes_ == 1))
        return probabilities[:, positive_column]


class SemPropOracle:
    """SemProp: one coherence per pair, word vectors memoised by name."""

    def __init__(
        self,
        embeddings,
        synm: float = 0.2,
        sema_negative: float = 0.2,
        sema_positive: float = 0.4,
        threshold: float = 0.5,
        reciprocal_best: bool = False,
    ) -> None:
        self.embeddings = embeddings
        self.synm = synm
        self.sema_negative = sema_negative
        self.sema_positive = sema_positive
        self.threshold = threshold
        self.reciprocal_best = reciprocal_best
        self._word_vectors: dict[str, list[np.ndarray]] = {}

    def _vectors(self, name: str) -> list[np.ndarray]:
        cached = self._word_vectors.get(name)
        if cached is None:
            cached = [self.embeddings.vector(word) for word in words(name)]
            self._word_vectors[name] = cached
        return cached

    def _coherence(self, left: str, right: str) -> float:
        vectors_left = self._vectors(left)
        vectors_right = self._vectors(right)
        if not vectors_left or not vectors_right:
            return 0.0

        def directed(sources, targets) -> float:
            best_scores = [
                max(cosine(source, target) for target in targets)
                for source in sources
            ]
            return float(np.mean(best_scores))

        return min(
            directed(vectors_left, vectors_right),
            directed(vectors_right, vectors_left),
        )

    def _score(self, left: str, right: str) -> float:
        sema = self._coherence(left, right)
        if sema >= self.sema_positive:
            span = 1.0 - self.sema_positive
            fraction = (sema - self.sema_positive) / span if span > 0 else 1.0
            return self.threshold + (1.0 - self.threshold) * fraction
        if sema < self.sema_negative:
            return max(0.0, sema)
        synm_similarity = 1.0 - ngram_cosine_distance(left.lower(), right.lower())
        if synm_similarity >= max(self.synm, 0.5):
            return self.threshold + (1.0 - self.threshold) * synm_similarity * 0.99
        return min(synm_similarity, self.threshold * 0.9)

    def score_pairs(self, dataset, pairs) -> np.ndarray:
        scores = np.empty(len(pairs))
        for i, pair in enumerate(pairs):
            scores[i] = self._score(pair.left.name, pair.right.name)
        if self.reciprocal_best:
            return self._reciprocal_best(pairs, scores)
        return scores

    def _reciprocal_best(
        self, pairs, scores: np.ndarray, slack: float = 0.02
    ) -> np.ndarray:
        best: dict[tuple, float] = {}
        for pair, score in zip(pairs, scores):
            for anchor, other in (
                (pair.left, pair.right.source),
                (pair.right, pair.left.source),
            ):
                key = (anchor, other)
                if score > best.get(key, -1.0):
                    best[key] = float(score)
        adjusted = scores.copy()
        for i, pair in enumerate(pairs):
            left_best = best[(pair.left, pair.right.source)]
            right_best = best[(pair.right, pair.left.source)]
            if scores[i] < max(left_best, right_best) - slack:
                adjusted[i] = min(scores[i], self.threshold * 0.9)
        return adjusted
