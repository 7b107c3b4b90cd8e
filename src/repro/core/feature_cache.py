"""Shared pair-feature store: the full Table I matrix, computed once.

The evaluation grid of Section V re-scores the *same* candidate pairs
under nine feature configurations, two training fractions and many
repetitions.  The seed implementation recomputed, per grid cell:

* the cross-source pair enumeration (``build_pairs``, quadratic in the
  property count), once per repetition per cell;
* the pair feature matrix, even though every config's matrix is a
  column subset of one full matrix (see
  :class:`repro.core.pipeline.FeatureSchema`).

This module hoists both.  :class:`PairUniverse` enumerates all
cross-source pairs of a dataset exactly once and serves every
``(sources, within)`` subset with one vectorised mask over that
enumeration -- the result is element-identical to ``build_pairs``.
:class:`PairFeatureStore` is a thin gather over the staged pipeline's
outputs: the full-width float32 matrix over the universe is assembled
once from the cached per-property stage columns, then any (pair set,
config) request is one read-only ``matrix[rows, columns]`` gather.

Stores are keyed by the dataset's content fingerprint: a store never
answers for a dataset it was not built from.  :meth:`PairFeatureStore.add_source`
is the incremental-ingestion path: merging a new source featurizes only
the new properties (the pipeline's fingerprint-keyed row cache serves
every old one) and only the new cross-source pairs, while old pair rows
are copied from the existing matrix.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from itertools import chain
from time import perf_counter

import numpy as np

from repro.blocking.blockers import Blocker
from repro.blocking.policy import CandidatePolicy
from repro.core.config import FeatureConfig
from repro.core.pair_features import pair_feature_matrix
from repro.core.pipeline import FEATURE_DTYPE
from repro.core.property_features import PropertyFeatureTable
from repro.data.model import Dataset, PropertyRef
from repro.data.pairs import (
    LabeledPair,
    PairSet,
    cross_source_index_pairs,
    sample_training_pairs,
    source_block_bounds,
)
from repro.errors import ConfigurationError


def _positions_in(sorted_keys: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Index of each of ``keys`` in ``sorted_keys``, ``-1`` where absent."""
    if len(sorted_keys) == 0:
        return np.full(len(keys), -1, dtype=np.intp)
    positions = np.minimum(np.searchsorted(sorted_keys, keys), len(sorted_keys) - 1)
    return np.where(sorted_keys[positions] == keys, positions, -1).astype(np.intp)


class PairUniverse:
    """The candidate cross-source pairs of a dataset, enumerated once.

    Candidate generation is policy-driven: under the default ``null``
    :class:`~repro.blocking.policy.CandidatePolicy` the universe holds
    every cross-source pair and ``subset`` reproduces
    :func:`repro.data.pairs.build_pairs` exactly (same pair objects,
    same order).  Under a blocking policy only the blocker's candidates
    are enumerated -- the full cross product is never materialised --
    and every downstream consumer (subsets, feature stores, scoring)
    automatically operates on the pruned universe.  Pair identity is
    tracked as sorted index pairs into the sorted property list, never
    as per-pair ``frozenset`` keys: row ``r`` holds the pair whose key
    ``i * len(properties) + j`` is ``_keys[r]``, and because every
    policy enumerates ``(i, j)`` lexicographically the key array is
    sorted, so row lookup is one ``searchsorted``.
    """

    def __init__(
        self,
        dataset: Dataset,
        policy: CandidatePolicy | None = None,
        *,
        embeddings=None,
        blocker: Blocker | None = None,
    ) -> None:
        self.dataset = dataset
        self.dataset_fingerprint = dataset.fingerprint()
        self.policy = policy if policy is not None else CandidatePolicy.null()
        self._all_sources = set(dataset.sources())
        properties = dataset.properties()
        if self.policy.is_null:
            # The exact-equivalence path: lexicographic (i, j) index
            # order is the seed nested-loop enumeration order.
            self._blocker: Blocker | None = None
            index_pairs = cross_source_index_pairs(properties)
        else:
            # A pre-resolved blocker is the delta-ingestion handoff: the
            # grown universe reuses the parent's instance so per-property
            # sketch memos survive the merge.
            self._blocker = (
                blocker if blocker is not None else self.policy.resolve(embeddings)
            )
            index_pairs = self._blocker.candidate_index_pairs(dataset, properties)
        self._index_of: dict[PropertyRef, int] = {
            ref: index for index, ref in enumerate(properties)
        }
        bounds = source_block_bounds(properties)
        self._block_sizes = [end - start for start, end in bounds]
        #: Source name of each source id; ``_property_source[i]`` is the
        #: source id of property ``i`` (sources sort as their blocks do).
        self._source_names = [properties[start].source for start, _ in bounds]
        self._property_source = np.repeat(
            np.arange(len(bounds), dtype=np.intp), self._block_sizes
        )
        ends = np.fromiter(chain.from_iterable(index_pairs), dtype=np.int64)
        ends = ends.reshape(-1, 2)
        left, right = ends[:, 0], ends[:, 1]
        self._keys = left * len(properties) + right
        self._keys.setflags(write=False)
        # Dataset.is_match over index arrays: both ends aligned to the
        # same reference property, in two different sources.
        reference_ids: dict[str, int] = {}
        reference = np.array(
            [
                -1
                if (aligned := dataset.reference_of(ref)) is None
                else reference_ids.setdefault(aligned, len(reference_ids))
                for ref in properties
            ],
            dtype=np.int64,
        )
        labels = (
            (reference[left] >= 0)
            & (reference[left] == reference[right])
            & (self._property_source[left] != self._property_source[right])
        )
        refs = np.empty(len(properties), dtype=object)
        refs[:] = properties
        self.pairs: tuple[LabeledPair, ...] = tuple(
            map(LabeledPair, refs[left].tolist(), refs[right].tolist(), labels.tolist())
        )
        self._stats_cache: dict | None = None
        self._subset_cache: dict[tuple[frozenset[str], bool], PairSet] = {}
        # lookup_rows is a per-pair Python loop; the same (memoised) pair
        # list recurs for every config of a grid cell, so cache the row
        # arrays by list identity (subsets enter with the rows their
        # mask selected).  Entries hold a strong reference to
        # the list, which keeps the id stable while cached.  Sizing: a
        # grid touches repetitions+1 entries per train fraction, and the
        # entries are small (index arrays / pair lists), so the caps sit
        # well above any realistic repetition count.
        self._rows_cache: OrderedDict[int, tuple[object, np.ndarray]] = OrderedDict()
        self._rows_cache_size = 256
        self._sample_cache: OrderedDict[tuple, tuple[object, PairSet]] = OrderedDict()
        self._sample_cache_size = 256
        # The memo dicts above are mutated on lookup (LRU move_to_end /
        # eviction), so concurrent read-only *requests* -- the serve
        # layer's thread-per-connection handlers all gathering from one
        # warm store -- must serialise cache access.  The lock guards
        # only the bookkeeping; the enumeration itself is immutable.
        self._cache_lock = threading.Lock()

    def __len__(self) -> int:
        return len(self.pairs)

    def ends(self, rows: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Property indices ``(left, right)`` of universe ``rows`` (default all).

        Indices address ``dataset.properties()`` -- and so the rows of
        any :class:`PropertyFeatureTable` built from the same dataset.
        """
        keys = self._keys if rows is None else self._keys[rows]
        width = max(len(self._index_of), 1)
        return keys // width, keys % width

    def subset(
        self, sources: list[str] | None = None, *, within: bool = True
    ) -> PairSet:
        """The ``build_pairs(dataset, sources, within=...)`` pair set."""
        if sources is None:
            selected = self._all_sources
        else:
            unknown = set(sources) - self._all_sources
            if unknown:
                raise ConfigurationError(f"unknown sources: {sorted(unknown)}")
            selected = set(sources)
        # The same split recurs across the nine configs of a grid cell;
        # memoise so the mask runs once per (sources, within).
        cache_key = (frozenset(selected), within)
        with self._cache_lock:
            cached = self._subset_cache.get(cache_key)
            if cached is not None:
                return cached
        chosen = np.array(
            [name in selected for name in self._source_names], dtype=bool
        )
        left, right = self.ends()
        inside = (
            chosen[self._property_source[left]] & chosen[self._property_source[right]]
        )
        rows = np.flatnonzero(inside == within)
        rows.setflags(write=False)
        kept = [self.pairs[row] for row in rows.tolist()]
        with self._cache_lock:
            result = self._subset_cache.setdefault(cache_key, PairSet(kept))
            if result.pairs is kept:
                # The rows are known already: store gathers over this
                # subset never walk its pairs through lookup_rows.
                self._remember_rows(kept, rows)
        return result

    def training_sample(
        self,
        candidates: PairSet,
        negative_ratio: float,
        rng_seed: tuple[int, ...],
    ) -> PairSet:
        """Memoised :func:`sample_training_pairs` over a memoised subset.

        Every config of a grid cell draws the same training sample (the
        rng is reseeded from ``rng_seed`` per draw), so the sample --
        like the subset it comes from -- is computed once and the shared
        ``PairSet`` object lets the row cache hit.
        The draw consumes a fresh generator exactly as the direct path
        does, so the sampled content is bit-identical.
        """
        key = (id(candidates), float(negative_ratio), tuple(rng_seed))
        with self._cache_lock:
            cached = self._sample_cache.get(key)
            if cached is not None and cached[0] is candidates:
                self._sample_cache.move_to_end(key)
                return cached[1]
        sample = sample_training_pairs(
            candidates, negative_ratio, np.random.default_rng(list(rng_seed))
        )
        with self._cache_lock:
            self._sample_cache[key] = (candidates, sample)
            if len(self._sample_cache) > self._sample_cache_size:
                self._sample_cache.popitem(last=False)
        return sample

    @property
    def is_blocked(self) -> bool:
        """Whether a non-null candidate policy pruned this universe."""
        return self._blocker is not None

    def total_cross_pairs(self) -> int:
        """Full cross-product pair count, from per-source counts only."""
        total = sum(self._block_sizes)
        all_pairs = total * (total - 1) // 2
        within = sum(size * (size - 1) // 2 for size in self._block_sizes)
        return all_pairs - within

    def blocking_stats(self) -> dict:
        """Candidate counts and quality of this universe's policy.

        ``pair_recall`` measures kept true matches against the *full*
        ground truth (``dataset.matching_pairs()``), so a pruned true
        pair lowers it even though the universe never enumerated the
        pair; ``reduction_ratio`` is the fraction of the cross product
        pruned.  The null policy reports 1.0 / 0.0 by construction.
        """
        if self._stats_cache is None:
            total = self.total_cross_pairs()
            candidates = len(self.pairs)
            true_total = len(self.dataset.matching_pairs())
            kept_true = sum(1 for pair in self.pairs if pair.label)
            self._stats_cache = {
                "policy": self.policy.label,
                "candidates": candidates,
                "total_pairs": total,
                "reduction_ratio": (
                    1.0 - candidates / total if total else 0.0
                ),
                "pair_recall": (
                    kept_true / true_total if true_total else 1.0
                ),
            }
        return dict(self._stats_cache)

    def missed_true_pairs(
        self, sources: list[str] | None = None, *, within: bool = True
    ) -> int:
        """True matches the policy pruned from a ``(sources, within)`` slice.

        Evaluation adds these to the false negatives so F1 stays honest
        against the full ground truth even when the test pairs come from
        a pruned universe.  Zero under the null policy by construction.
        """
        if not self.is_blocked:
            return 0
        if sources is None:
            selected = self._all_sources
        else:
            unknown = set(sources) - self._all_sources
            if unknown:
                raise ConfigurationError(f"unknown sources: {sorted(unknown)}")
            selected = set(sources)
        slice_true = 0
        for key in self.dataset.matching_pairs():
            left, right = tuple(key)
            both_inside = left.source in selected and right.source in selected
            if within == both_inside:
                slice_true += 1
        kept_true = sum(
            1 for pair in self.subset(sources, within=within).pairs if pair.label
        )
        return slice_true - kept_true

    def lookup_rows(
        self, pairs: list[LabeledPair] | list[tuple[PropertyRef, PropertyRef]]
    ) -> np.ndarray:
        """Universe row of each (unordered) pair, ``-1`` where it has none.

        A pair has no row when either property is foreign to the
        dataset, both sit in one source, or the policy pruned it.
        """
        get = self._index_of.get
        ends = np.array(
            [
                (get(pair.left, -1), get(pair.right, -1))
                if isinstance(pair, LabeledPair)
                else (get(pair[0], -1), get(pair[1], -1))
                for pair in pairs
            ],
            dtype=np.int64,
        ).reshape(-1, 2)
        low, high = ends.min(axis=1), ends.max(axis=1)
        rows = _positions_in(self._keys, low * len(self._index_of) + high)
        rows[low < 0] = -1
        return rows

    def rows_from(self, previous: "PairUniverse") -> np.ndarray:
        """Row of each of this universe's pairs in ``previous``, or ``-1``.

        The delta-ingestion row map.  ``previous`` is the universe this
        one grew from, so its properties are a subset of ours and sort
        the same way: remapping its keys through our property index is
        monotone, keeps them sorted, and one ``searchsorted`` then
        matches them against ours -- no per-pair hashing.  A previous
        pair the policy no longer keeps simply matches no row.
        """
        remap = np.array(
            [self._index_of.get(ref, -1) for ref in previous._index_of],
            dtype=np.int64,
        )
        old_left, old_right = previous.ends()
        left = remap[old_left]
        right = remap[old_right]
        present = np.flatnonzero((left >= 0) & (right >= 0))
        hits = _positions_in(
            left[present] * len(self._index_of) + right[present], self._keys
        )
        rows = np.full(len(self._keys), -1, dtype=np.intp)
        found = hits >= 0
        rows[found] = present[hits[found]]
        return rows

    def row_of(self, pair: LabeledPair | tuple[PropertyRef, PropertyRef]) -> int:
        """Universe row of an (unordered) pair."""
        return int(self._require_rows(self.lookup_rows([pair]))[0])

    def _require_rows(self, rows: np.ndarray) -> np.ndarray:
        if (rows < 0).any():
            raise ConfigurationError(
                "pair is not part of this dataset's cross-source universe"
                + (
                    f" under blocking policy {self.policy.label!r}"
                    if self.is_blocked
                    else ""
                )
            )
        return rows

    def rows_of(
        self, pairs: list[LabeledPair] | list[tuple[PropertyRef, PropertyRef]]
    ) -> np.ndarray:
        """Universe rows of many pairs, in order."""
        with self._cache_lock:
            cached = self._rows_cache.get(id(pairs))
            if cached is not None and cached[0] is pairs:
                self._rows_cache.move_to_end(id(pairs))
                return cached[1]
        rows = self._require_rows(self.lookup_rows(pairs))
        rows.setflags(write=False)
        with self._cache_lock:
            self._remember_rows(pairs, rows)
        return rows

    def _remember_rows(self, pairs, rows: np.ndarray) -> None:
        """Cache ``rows`` for the ``pairs`` list; caller holds the lock."""
        self._rows_cache[id(pairs)] = (pairs, rows)
        if len(self._rows_cache) > self._rows_cache_size:
            self._rows_cache.popitem(last=False)


class PairFeatureStore:
    """Full-width pair features over a :class:`PairUniverse`, shared.

    The matrix is assembled once at construction (a thin gather over
    the pipeline's columnar stage outputs); every
    ``features(pairs, config)`` call afterwards is one :meth:`gather` of
    the requested rows and the config's columns.  The store keeps no
    per-request state, so concurrent readers share it without a lock;
    the full matrix and every served matrix are read-only.
    """

    def __init__(
        self,
        table: PropertyFeatureTable,
        universe: PairUniverse,
        *,
        matrix: np.ndarray | None = None,
    ) -> None:
        if table.dataset_fingerprint != universe.dataset_fingerprint:
            raise ConfigurationError(
                "feature table and pair universe come from different datasets"
            )
        self.table = table
        self.universe = universe
        self.dataset_fingerprint = universe.dataset_fingerprint
        self.schema = table.pipeline.schema
        self.timings: dict[str, float] = {}
        # A prebuilt matrix is the delta-construction path
        # (with_source): the caller assembled it from copied old rows
        # plus freshly featurized new ones and it is already
        # bit-identical to what _assemble would produce.
        if matrix is None:
            matrix = self._assemble(table, *universe.ends())
        self.matrix = matrix

    def _assemble(
        self, table: PropertyFeatureTable, left: np.ndarray, right: np.ndarray
    ) -> np.ndarray:
        """Full-width float32 rows joining table rows ``left`` and ``right``."""
        pipeline = table.pipeline
        started = perf_counter()
        distance_before = pipeline.stage_seconds.get("name_distance", 0.0)
        matrix = pipeline.pair_matrix(table, left, right, FeatureConfig())
        matrix.setflags(write=False)
        self.timings["name_distances"] = self.timings.get(
            "name_distances", 0.0
        ) + (pipeline.stage_seconds.get("name_distance", 0.0) - distance_before)
        self.timings["build"] = self.timings.get("build", 0.0) + (
            perf_counter() - started
        )
        return matrix

    @property
    def pipeline(self):
        """The :class:`~repro.core.pipeline.FeaturePipeline` rows come from."""
        return self.table.pipeline

    @classmethod
    def build(
        cls,
        dataset: Dataset,
        embeddings,
        universe: PairUniverse | None = None,
        *,
        policy: CandidatePolicy | None = None,
    ) -> "PairFeatureStore":
        """Construct table, universe and store in one step.

        ``policy`` selects the candidate-generation policy when no
        prebuilt ``universe`` is given; ``embeddings`` double as the
        vector source for embedding-bucket policies.
        """
        if universe is None:
            universe = PairUniverse(dataset, policy, embeddings=embeddings)
        table = PropertyFeatureTable(dataset, embeddings)
        return cls(table, universe)

    def serves(self, dataset: Dataset) -> bool:
        """Whether this store was built from ``dataset``'s content."""
        return self.dataset_fingerprint == dataset.fingerprint()

    def _delta_parts(
        self, addition: Dataset
    ) -> tuple[PropertyFeatureTable, PairUniverse, np.ndarray, PairSet]:
        """The PR 5 incremental merge, without touching this store.

        Builds the merged table/universe/matrix beside the current
        state: only the new properties are featurized (the pipeline's
        fingerprint-keyed row cache serves every existing one) and only
        the new candidate pairs are assembled -- existing pair rows are
        copied from the current matrix.  The merged universe inherits
        this store's candidate policy *and* its resolved blocker, so
        under a bucket policy the old properties' sketches are memo
        hits and re-blocking is a bucket lookup plus fresh sketches for
        the new source -- never a new-times-all cross walk.
        Bit-identical to rebuilding the store from scratch on the
        merged dataset under the same policy.
        """
        base = self.universe.dataset
        combined = base.merged_with(addition)
        table = PropertyFeatureTable(
            combined, self.table.pipeline.embeddings, pipeline=self.table.pipeline
        )
        universe = PairUniverse(
            combined,
            self.universe.policy,
            blocker=self.universe._blocker,
        )
        old_rows = universe.rows_from(self.universe)
        kept = old_rows >= 0
        matrix = np.empty((len(universe), self.schema.total_width), dtype=FEATURE_DTYPE)
        matrix[kept] = self.matrix[old_rows[kept]]
        new_rows = np.flatnonzero(~kept)
        new_pairs = [universe.pairs[row] for row in new_rows]
        if new_pairs:
            matrix[new_rows] = self._assemble(table, *universe.ends(new_rows))
        matrix.setflags(write=False)
        return table, universe, matrix, PairSet(new_pairs)

    def add_source(self, addition: Dataset) -> PairSet:
        """Ingest a new source incrementally; returns the new pairs.

        ``addition`` must contain only sources the store's dataset does
        not already have.  The store's dataset, universe, table and
        matrix are replaced by merged equivalents via the
        :meth:`_delta_parts` increment.  Mutates *this* store in place
        (the batch-ingestion contract); concurrent readers must use
        :meth:`with_source` instead.
        """
        table, universe, matrix, new_pairs = self._delta_parts(addition)
        self.table = table
        self.matrix = matrix
        self.universe = universe
        self.dataset_fingerprint = universe.dataset_fingerprint
        return new_pairs

    def with_source(self, addition: Dataset) -> tuple["PairFeatureStore", PairSet]:
        """A *new* store with ``addition`` fused in; this store untouched.

        The copy-on-swap counterpart of :meth:`add_source`: the serve
        layer's graceful reload builds the successor store beside the
        live one (same :meth:`_delta_parts` increment, so the new matrix
        is bit-identical to a cold rebuild on the merged dataset) and
        swaps it in atomically while in-flight requests keep reading the
        old store.  The two stores share the staged pipeline -- and so
        its fingerprint-keyed row cache -- but nothing mutable.
        """
        table, universe, matrix, new_pairs = self._delta_parts(addition)
        return PairFeatureStore(table, universe, matrix=matrix), new_pairs

    def rows_of(
        self, pairs: list[LabeledPair] | list[tuple[PropertyRef, PropertyRef]]
    ) -> np.ndarray | None:
        """Universe rows of ``pairs``, or ``None`` when they need the direct route.

        Under a blocking policy a request may include pairs the universe
        pruned (the incremental clusterer scores arbitrary
        new-vs-existing links); those have no row, and :meth:`features`
        assembles them from the staged pipeline instead.
        """
        try:
            return self.universe.rows_of(pairs)
        except ConfigurationError:
            if not self.universe.is_blocked:
                raise
            return None

    def gather(self, rows: np.ndarray, config: FeatureConfig) -> np.ndarray:
        """Read-only feature matrix of universe ``rows`` under ``config``.

        One gather of the rows and the config's columns (a slice for
        eight of the nine grid configs, an index array for
        ``both/non_embedding``).
        """
        columns = self.schema.active_columns(config)
        if isinstance(columns, slice):
            served = self.matrix[rows, columns]
        else:
            served = self.matrix[np.ix_(rows, columns)]
        served.setflags(write=False)
        return served

    def features(
        self,
        pairs: list[LabeledPair] | list[tuple[PropertyRef, PropertyRef]] | PairSet,
        config: FeatureConfig,
    ) -> np.ndarray:
        """Read-only feature matrix for ``pairs`` under ``config``.

        :meth:`rows_of` then :meth:`gather`; pairs a blocked universe
        pruned are assembled directly from the staged pipeline, which
        yields the same feature values as universe rows would.
        """
        if isinstance(pairs, PairSet):
            pairs = pairs.pairs
        rows = self.rows_of(pairs)
        if rows is None:
            return pair_feature_matrix(self.table, list(pairs), config)
        return self.gather(rows, config)
