"""The end-to-end LEAPME matcher (Algorithm 1).

``prepare`` covers steps 1-4 (feature computation), ``fit`` step 5's
training half and ``score_pairs`` the classification of unlabeled pairs
into the similarity graph.
"""

from __future__ import annotations

import copy
from time import perf_counter

import numpy as np

from repro.core.api import Matcher
from repro.core.classifier import (
    LeapmeClassifier,
    ResilientClassifier,
    blocked_scores,
    scoring_state,
)
from repro.core.config import FeatureConfig, LeapmeConfig
from repro.core.pipeline import FeaturePipeline, FeatureSchema
from repro.core.property_features import PropertyFeatureTable
from repro.data.model import Dataset
from repro.data.pairs import PairSet
from repro.embeddings.base import WordEmbeddings
from repro.errors import NotFittedError


class LeapmeMatcher(Matcher):
    """Supervised property matcher with embedding + instance features.

    Parameters
    ----------
    embeddings:
        The word-embedding space (the paper uses pre-trained GloVe; this
        reproduction trains a substitute, see :mod:`repro.embeddings`).
    feature_config:
        Which Table I feature blocks to use; defaults to the full set.
    config:
        Network hyper-parameters; defaults to the paper's (Section IV-D).
    classifier_factory:
        Builds the pair classifier at fit time.  Defaults to the paper's
        neural network (:class:`LeapmeClassifier`); pass a factory
        returning a :class:`repro.core.classical.ClassicalPairClassifier`
        to ablate the classifier family.
    resilient:
        When true, train through the
        :class:`~repro.core.classifier.ResilientClassifier` degradation
        ladder (reduced learning rate, then classical fallback) instead
        of letting a diverged run abort; ``last_degradation`` reports
        which rung the most recent :meth:`fit` ended on.  Ignored when
        an explicit ``classifier_factory`` is given.
    candidate_policy:
        The :class:`~repro.blocking.policy.CandidatePolicy` every
        feature store this matcher builds enumerates candidates with.
        Defaults to the exact-equivalence null policy (all cross-source
        pairs).
    """

    is_supervised = True

    def __init__(
        self,
        embeddings: WordEmbeddings,
        feature_config: FeatureConfig | None = None,
        config: LeapmeConfig | None = None,
        classifier_factory=None,
        resilient: bool = False,
        candidate_policy=None,
    ) -> None:
        from repro.blocking.policy import CandidatePolicy

        self.embeddings = embeddings
        self.feature_config = feature_config if feature_config is not None else FeatureConfig()
        self.config = config if config is not None else LeapmeConfig()
        self.threshold = self.config.decision_threshold
        self.candidate_policy = (
            candidate_policy if candidate_policy is not None else CandidatePolicy.null()
        )
        self.name = f"LEAPME[{self.feature_config.label()}]"
        if classifier_factory is not None:
            self._classifier_factory = classifier_factory
        elif resilient:
            self._classifier_factory = lambda: ResilientClassifier(self.config)
        else:
            self._classifier_factory = lambda: LeapmeClassifier(self.config)
        #: The staged featurization pipeline; its per-property row cache
        #: is shared by every table/store this matcher builds.
        self.pipeline = FeaturePipeline(embeddings)
        self._store = None
        self._classifier: LeapmeClassifier | None = None
        #: Degradation label of the most recent fit (None when the
        #: classifier trained normally or does not report degradation).
        self.last_degradation: str | None = None
        #: Cumulative seconds spent gathering pair-feature rows;
        #: the runner's phase instrumentation reads deltas of this.
        self.feature_seconds: float = 0.0

    def prepare(self, dataset: Dataset) -> None:
        """Build and attach ``dataset``'s feature store (Algorithm 1 steps 1-4).

        A no-op when the attached :class:`PairFeatureStore` already
        serves this dataset.  Stores are keyed on the content
        fingerprint, not the bare name: two different datasets that
        happen to share a name never share a store.  ``fit`` and
        ``score_pairs`` prepare on demand.
        """
        if self._store is None or not self._store.serves(dataset):
            self._store = self.build_feature_store(dataset)

    @property
    def schema(self) -> FeatureSchema:
        """The feature-column geometry this matcher scores with."""
        return self.pipeline.schema

    @property
    def is_fitted(self) -> bool:
        """Whether the pair classifier has been trained."""
        return self._classifier is not None

    @property
    def store(self) -> object | None:
        """The attached :class:`PairFeatureStore` (``None`` before prepare)."""
        return self._store

    def attach_store(self, store) -> None:
        """Share a precomputed :class:`PairFeatureStore`.

        ``fit`` and ``score_pairs`` on the store's dataset gather their
        columns from the shared store; any other dataset
        gets its own store, built by :meth:`prepare`.  Pass ``None`` to
        detach.
        """
        self._store = store

    def build_feature_store(self, dataset: Dataset, universe=None):
        """Build a :class:`PairFeatureStore` with this matcher's embeddings.

        The store's universe enumerates candidates under this matcher's
        :attr:`candidate_policy` (embedding-bucket policies resolve
        against the matcher's own embeddings); pass a prebuilt
        ``universe`` to share one across matchers instead.
        """
        from repro.core.feature_cache import PairFeatureStore, PairUniverse

        if universe is None:
            universe = PairUniverse(
                dataset, self.candidate_policy, embeddings=self.embeddings
            )
        table = PropertyFeatureTable(dataset, self.embeddings, pipeline=self.pipeline)
        return PairFeatureStore(table, universe)

    def fit(self, dataset: Dataset, training_pairs: PairSet) -> None:
        """Train the classifier on labelled pairs (Algorithm 1 step 5)."""
        self.prepare(dataset)
        started = perf_counter()
        features = self._store.features(training_pairs, self.feature_config)
        self.feature_seconds += perf_counter() - started
        labels = training_pairs.labels()
        self._classifier = self._classifier_factory()
        self._classifier.fit(features, labels)
        self.last_degradation = getattr(self._classifier, "degradation", None)

    def score_pairs(self, dataset: Dataset, pairs: PairSet) -> np.ndarray:
        """Positive-class probabilities for candidate pairs.

        The one-member case of :func:`score_together`: the store
        resolves the pairs once to property rows and name rows (pairs a
        blocked universe pruned included), and each
        :func:`~repro.nn.network.row_blocks` block of this matcher's own
        columns is gathered from the store and scored by the
        classifier's ``match_scores``: no whole-set feature matrix is
        built.  Resolution and gathers count toward
        :attr:`feature_seconds`.
        """
        (scores,) = score_together([self], dataset, pairs)
        return scores

    def predict(self, dataset: Dataset, pairs: PairSet) -> np.ndarray:
        """Boolean match decisions at the configured decision threshold."""
        return self.score_pairs(dataset, pairs) >= self.threshold

    def candidates(
        self, dataset: Dataset, sources: list[str] | None = None, within: bool = True
    ) -> PairSet:
        """Rows of the store's candidate universe (prepares on demand).

        Element-identical to :func:`~repro.data.pairs.build_pairs` under
        the null policy; the pruned candidates under a blocking one.
        """
        self.prepare(dataset)
        return self._store.universe.subset(sources, within=within)

    def with_source(
        self, dataset: Dataset, addition: Dataset
    ) -> tuple["LeapmeMatcher", Dataset, PairSet]:
        """The store's delta path: featurize only what ``addition`` brings.

        :meth:`PairFeatureStore.with_source` builds the merged store
        beside the current one (bit-identical to a cold rebuild), and a
        shallow clone reads from it; the clone shares the trained
        classifier, embeddings and staged pipeline, all read-only at
        scoring time.  The new pairs are the merged universe's rows the
        old universe lacked -- under a blocking policy that can include
        base-base pairs the addition pulled into one bucket.
        """
        store = self._store
        if store is None or not store.serves(dataset):
            store = self.build_feature_store(dataset)
        grown, new_pairs = store.with_source(addition)
        successor = copy.copy(self)
        successor._store = grown
        return successor, grown.universe.dataset, new_pairs

    @property
    def classifier(self) -> LeapmeClassifier:
        """The trained classifier (raises before :meth:`fit`)."""
        if self._classifier is None:
            raise NotFittedError("LeapmeMatcher is not fitted")
        return self._classifier


def score_together(
    matchers: list[LeapmeMatcher],
    dataset: Dataset,
    pairs: PairSet,
) -> list[np.ndarray]:
    """Each fitted matcher's :meth:`~LeapmeMatcher.score_pairs` scores.

    Matchers that share a feature store are scored in one pass: each
    row block is gathered once, over the union of their feature
    columns, and :func:`~repro.core.classifier.blocked_scores` scales
    it once for all members whose scalers agree; every network reads
    its own columns from that block.  The scores are bit-identical to
    scoring each matcher alone, which is the one-member case.  The
    pass's resolution and gathers count toward each member's
    :attr:`~LeapmeMatcher.feature_seconds` in equal shares.
    """
    by_store: dict[int, list[int]] = {}
    for index, matcher in enumerate(matchers):
        if matcher._classifier is None:
            raise NotFittedError("LeapmeMatcher must be fitted before scoring")
        matcher.prepare(dataset)
        by_store.setdefault(id(matcher._store), []).append(index)
    scores: list = [None] * len(matchers)
    for indices in by_store.values():
        members = [matchers[index] for index in indices]
        for index, result in zip(indices, _score_on_store(members, pairs)):
            scores[index] = result
    return scores


def _score_on_store(matchers: list[LeapmeMatcher], pairs: PairSet) -> list[np.ndarray]:
    """One shared score pass over the matchers' common store."""
    store = matchers[0]._store
    columns, width, positions = _column_union(
        [store.schema.active_columns(m.feature_config) for m in matchers],
        store.schema.total_width,
    )
    started = perf_counter()
    count, read = store.block_reader(pairs, columns)
    seconds = perf_counter() - started

    def read_block(start: int, stop: int) -> np.ndarray:
        nonlocal seconds
        began = perf_counter()
        block = read(start, stop)
        seconds += perf_counter() - began
        return block

    results = blocked_scores(
        count,
        width,
        read_block,
        [
            (_scorer(matcher._classifier, shared=len(matchers) > 1), position)
            for matcher, position in zip(matchers, positions)
        ],
    )
    for matcher in matchers:
        matcher.feature_seconds += seconds / len(matchers)
    return results


def _scorer(classifier, *, shared: bool):
    """What scores one member's blocks in :func:`blocked_scores`.

    In a shared pass, a network's :class:`FittedState`, so it reads the
    shared scaled block.  A lone matcher has nothing to share: its
    classifier's own ``match_scores`` scores each gathered block, the
    calls :meth:`LeapmeMatcher.score_pairs` has always made.
    """
    state = scoring_state(classifier) if shared else None
    return state if state is not None else classifier


def _column_union(columns: list, width: int) -> tuple[object, int, list]:
    """The union of full-matrix ``columns``, its width, and each one's place in it.

    Every entry is a slice or an index array, and so is every place:
    a slice whenever the columns are consecutive, so one config's own
    columns gather and read exactly as they do alone.
    """
    indices = [np.arange(width)[selection] for selection in columns]
    union = np.unique(np.concatenate(indices))
    return _as_slice(union), len(union), [
        _as_slice(np.searchsorted(union, selection)) for selection in indices
    ]


def _as_slice(indices: np.ndarray):
    """``indices`` (ascending, distinct) as a slice when they are consecutive."""
    if len(indices) and indices[-1] - indices[0] + 1 == len(indices):
        return slice(int(indices[0]), int(indices[-1]) + 1)
    return indices
