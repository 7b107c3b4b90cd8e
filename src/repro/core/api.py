"""The matcher interface shared by LEAPME and every baseline.

A matcher turns candidate property pairs into similarity scores in
[0, 1]; supervised matchers additionally learn from labelled training
pairs.  The evaluation harness drives any matcher through this interface.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.data.model import Dataset
from repro.data.pairs import LabeledPair, PairSet
from repro.graph.simgraph import SimilarityGraph


class Matcher(ABC):
    """Base matcher: scores candidate pairs of one dataset.

    Lifecycle: :meth:`prepare` is called once per dataset (feature
    precomputation), :meth:`fit` once per training split (a no-op for
    unsupervised matchers) and :meth:`score_pairs` on any pair list or
    :class:`PairSet`.  Pair arguments are only sized with ``len()``
    and iterated.
    """

    #: Display name used in result tables.
    name: str = "matcher"
    #: Whether :meth:`fit` uses the training pairs.
    is_supervised: bool = False
    #: Score at or above which a pair counts as a match.
    threshold: float = 0.5

    @property
    def is_fitted(self) -> bool:
        """Whether :meth:`score_pairs` may be called right away.

        Unsupervised matchers are always ready; supervised ones
        override this to report whether :meth:`fit` has run.  Streaming
        callers (:mod:`repro.ingest`) check it up front so a
        mis-bootstrapped daemon fails before its first batch, not
        inside it.
        """
        return not self.is_supervised

    def prepare(self, dataset: Dataset) -> None:
        """Precompute per-dataset state (features, signatures, ...)."""

    def fit(self, dataset: Dataset, training_pairs: PairSet) -> None:
        """Learn from labelled pairs; default is a no-op (unsupervised)."""

    @abstractmethod
    def score_pairs(
        self, dataset: Dataset, pairs: PairSet | list[LabeledPair]
    ) -> np.ndarray:
        """Similarity scores in [0, 1], aligned with ``pairs``."""

    def match(
        self, dataset: Dataset, pairs: PairSet | list[LabeledPair]
    ) -> SimilarityGraph:
        """Score pairs and collect them into a similarity graph."""
        scores = self.score_pairs(dataset, pairs)
        graph = SimilarityGraph()
        for pair, score in zip(pairs, scores):
            graph.add(pair.left, pair.right, float(np.clip(score, 0.0, 1.0)))
        return graph
