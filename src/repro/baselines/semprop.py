"""SemProp-style matcher: syntactic + semantic (embedding) linkage.

SemProp (Fernandez et al., ICDE 2018) links schema elements through two
unsupervised channels: a syntactic matcher (SynM) over name similarity
and a semantic matcher (SeMa) that relates *coherent groups* of word
embeddings.  SeMa accepts a link when the embedding coherence is high
(positive threshold) and explicitly rejects it when the coherence is low
(negative threshold), with a gap in between where only syntactic
evidence counts.

The paper runs it with thresholds "0.2 for SynM, 0.2 for SeMa(-), and
0.4 for SeMa(+)", which we adopt as defaults:

* ``sema`` is the *coherence* of the two names' word groups: every word
  of one name is matched to its most similar word in the other name and
  the per-word best scores are averaged, symmetrised by taking the worse
  direction -- a group is only coherent if all of its words find a
  counterpart;
* ``sema >= sema_positive`` -> semantic link (score = sema);
* ``sema < sema_negative`` -> rejected regardless of syntax (score ~ 0);
* otherwise a syntactic link forms if the trigram-cosine similarity of
  the names clears ``synm`` (score = that similarity).

An optional ``reciprocal_best`` selection pass (off by default, matching
SemProp's plain thresholded link generation) additionally demotes pairs
that are not the best-scoring link of both endpoints towards the other
endpoint's source -- a stricter selection regime useful when the
embedding space has a high anisotropic noise floor.
"""

from __future__ import annotations

import numpy as np

from repro.core.api import Matcher, Pairs, name_pairs, pair_ends
from repro.data.model import Dataset, PropertyRef
from repro.embeddings.base import WordEmbeddings, cosine
from repro.errors import ConfigurationError
from repro.text.ngrams import ngram_cosine_distance
from repro.text.tokenize import words


class SemPropMatcher(Matcher):
    """Unsupervised embedding-coherence matcher (SemProp style)."""

    name = "SemProp"
    is_supervised = False

    def __init__(
        self,
        embeddings: WordEmbeddings,
        synm: float = 0.2,
        sema_negative: float = 0.2,
        sema_positive: float = 0.4,
        threshold: float = 0.5,
        reciprocal_best: bool = False,
    ) -> None:
        if not 0.0 <= sema_negative <= sema_positive <= 1.0:
            raise ConfigurationError(
                "need 0 <= sema_negative <= sema_positive <= 1"
            )
        self.embeddings = embeddings
        self.synm = synm
        self.sema_negative = sema_negative
        self.sema_positive = sema_positive
        self.threshold = threshold
        self.reciprocal_best = reciprocal_best

    @staticmethod
    def _coherence(vectors_left: list, vectors_right: list) -> float:
        """Symmetric best-match coherence of the two names' word groups."""
        if not vectors_left or not vectors_right:
            return 0.0

        def directed(sources: list, targets: list) -> float:
            return float(np.mean([max(cosine(s, t) for t in targets) for s in sources]))

        return min(
            directed(vectors_left, vectors_right),
            directed(vectors_right, vectors_left),
        )

    def _score(self, left: str, right: str, vectors: dict[str, list]) -> float:
        sema = self._coherence(vectors[left], vectors[right])
        if sema >= self.sema_positive:
            # Semantic link; map [positive, 1] onto [threshold, 1] so any
            # accepted link clears the decision threshold.
            span = 1.0 - self.sema_positive
            fraction = (sema - self.sema_positive) / span if span > 0 else 1.0
            return self.threshold + (1.0 - self.threshold) * fraction
        if sema < self.sema_negative:
            # SeMa(-) veto: strongly unrelated semantics kill the link.
            return max(0.0, sema)
        # Undecided semantics: fall back to the syntactic matcher.
        synm_similarity = 1.0 - ngram_cosine_distance(left.lower(), right.lower())
        if synm_similarity >= max(self.synm, 0.5):
            return self.threshold + (1.0 - self.threshold) * synm_similarity * 0.99
        return min(synm_similarity, self.threshold * 0.9)

    def score_pairs(self, dataset: Dataset, pairs: Pairs) -> np.ndarray:
        """Each distinct (ordered) name pair is scored once."""
        refs, left, right = pair_ends(pairs)
        names, distinct, inverse = name_pairs(refs, left, right)
        vectors = {
            name: [self.embeddings.vector(word) for word in words(name)] for name in names
        }
        distinct_scores = [self._score(a, b, vectors) for a, b in distinct]
        scores = np.array(distinct_scores, dtype=np.float64)[inverse]
        if self.reciprocal_best:
            return self._reciprocal_best(refs, left, right, scores)
        return scores

    def _reciprocal_best(
        self,
        refs: list[PropertyRef],
        left: np.ndarray,
        right: np.ndarray,
        scores: np.ndarray,
        slack: float = 0.02,
    ) -> np.ndarray:
        """Demote links that are not (near-)best for both endpoints.

        For every (property, counterpart source) the best score is found;
        a pair whose score trails either directional best by more than
        ``slack`` is pushed below the decision threshold.
        """
        sources, source = np.unique([ref.source for ref in refs], return_inverse=True)
        best = np.full((len(refs), len(sources)), -1.0)
        np.maximum.at(best, (left, source[right]), scores)
        np.maximum.at(best, (right, source[left]), scores)
        leading = np.maximum(best[left, source[right]], best[right, source[left]])
        return np.where(
            scores < leading - slack, np.minimum(scores, self.threshold * 0.9), scores
        )
