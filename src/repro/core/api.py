"""The matcher interface shared by LEAPME and every baseline.

A matcher turns candidate property pairs into similarity scores in
[0, 1]; supervised matchers additionally learn from labelled training
pairs.  The evaluation harness drives any matcher through this interface.
"""

from __future__ import annotations

import copy
from abc import ABC, abstractmethod

import numpy as np

from repro.data.model import Dataset, PropertyRef
from repro.data.pairs import PairSet, build_pairs
from repro.graph.simgraph import SimilarityGraph


#: What a matcher scores.
Pairs = PairSet


def pair_ends(pairs: Pairs) -> tuple[list[PropertyRef], np.ndarray, np.ndarray]:
    """``pairs`` as ``(refs, left, right)``: each pair's ends index ``refs``.

    ``refs`` are the dataset's sorted properties and the ends are read
    from the set's universe in its own orientation; no object is built.
    """
    return pairs.universe.dataset.properties(), *pairs.ends()


def name_pairs(
    refs: list[PropertyRef], left: np.ndarray, right: np.ndarray, *, ordered: bool = True
) -> tuple[list[str], list[tuple[str, str]], np.ndarray]:
    """The distinct exact (not lowercased) name pairs of :func:`pair_ends`' output.

    Returns ``(names, distinct, inverse)``: the distinct names, the
    distinct name pairs, and the distinct pair of each request pair.
    ``ordered=False`` puts the smaller name first.
    """
    names, ids = np.unique(
        np.array([ref.name for ref in refs], dtype=object), return_inverse=True
    )
    first, second = ids[left], ids[right]
    if not ordered:
        first, second = np.minimum(first, second), np.maximum(first, second)
    width = max(len(names), 1)
    codes, inverse = np.unique(first * width + second, return_inverse=True)
    distinct = [(names[code // width], names[code % width]) for code in codes.tolist()]
    return names.tolist(), distinct, inverse


class Matcher(ABC):
    """Base matcher: scores candidate pairs of one dataset.

    Lifecycle: :meth:`prepare` is called once per dataset (feature
    precomputation), :meth:`fit` once per training split (a no-op for
    unsupervised matchers) and :meth:`score_pairs` on any
    :class:`PairSet` of the dataset: rows of a candidate universe, or
    pairs a caller names (:func:`~repro.data.pairs.explicit_pairs`).
    Matchers read a request as property indices (:func:`pair_ends`, or
    a feature store's request path) and build no pair object; only
    :meth:`match` iterates the pairs.
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

    def candidates(
        self, dataset: Dataset, sources: list[str] | None = None, within: bool = True
    ) -> PairSet:
        """The candidate pairs this matcher scores on ``dataset``.

        Same slicing as :func:`~repro.data.pairs.build_pairs`, which is
        what the default returns: every cross-source pair.
        """
        return build_pairs(dataset, sources, within=within)

    def with_source(
        self, dataset: Dataset, addition: Dataset
    ) -> tuple["Matcher", Dataset, PairSet]:
        """Grow into ``dataset`` plus ``addition``, leaving ``self`` untouched.

        Returns ``(successor, merged, new_pairs)``: a matcher prepared
        on the merged dataset, that dataset, and the candidate pairs it
        has that ``dataset`` did not.  The one add-source path: the
        service, follow mode and ``repro match --add-source`` build the
        successor beside the live matcher and swap it in.  Raises
        :class:`~repro.errors.DataError` ("already present") before any
        work when ``addition`` repeats a source.  The default is a
        shallow copy re-prepared on the merged dataset: matchers rebind
        their per-dataset state on prepare, so the copy shares nothing
        it will change with ``self``.
        """
        merged = dataset.merged_with(addition)
        successor = copy.copy(self)
        successor.prepare(merged)
        return successor, merged, build_pairs(merged, dataset.sources(), within=False)

    @abstractmethod
    def score_pairs(self, dataset: Dataset, pairs: Pairs) -> np.ndarray:
        """Similarity scores in [0, 1], aligned with ``pairs``."""

    def match(self, dataset: Dataset, pairs: Pairs) -> SimilarityGraph:
        """Score pairs and collect them into a similarity graph."""
        scores = self.score_pairs(dataset, pairs)
        graph = SimilarityGraph()
        for pair, score in zip(pairs, scores):
            graph.add(pair.left, pair.right, float(np.clip(score, 0.0, 1.0)))
        return graph
