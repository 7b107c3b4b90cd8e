"""Shared pair-feature store: Table I pair rows from two small tables.

The evaluation grid of Section V re-scores the *same* candidate pairs
under nine feature configurations, two training fractions and many
repetitions.  The seed implementation recomputed, per grid cell:

* the cross-source pair enumeration (a Python loop over every pair,
  quadratic in the property count), once per repetition per cell;
* the pair feature matrix, even though every config's matrix is a
  column subset of one full matrix (see
  :class:`repro.core.pipeline.FeatureSchema`).

This module hoists both.  :class:`PairUniverse` enumerates all
cross-source pairs of a dataset exactly once and serves every
``(sources, within)`` subset as the rows one vectorised mask selects
from that enumeration; every pair set is such rows, and ``build_pairs``
is the null-policy universe's subset.
:class:`PairFeatureStore` never materialises the pair matrix: a pair
row is a function of two property rows (their absolute difference,
Table I row 7) and of the pair's name row (rows 8-15), so the store
keeps the property rows and one distance row per distinct name pair.
Every request -- a pair set over the store's universe or over other
pairs of the dataset -- resolves once to two property rows and a name
row per pair, and its (rows, columns) blocks are computed on gather.

Stores are keyed by the dataset's content fingerprint: a store never
answers for a dataset it was not built from, and it never changes after
construction.  :meth:`PairFeatureStore.with_source` is the
incremental-ingestion path: it builds a *new* store for the merged
dataset that featurizes only the new properties (the pipeline's
fingerprint-keyed row cache serves every old one) and sends only the
name pairs the old store lacks to the distance kernel.
"""

from __future__ import annotations

from collections.abc import Callable
from itertools import chain

import numpy as np

from repro.blocking.blockers import Blocker
from repro.blocking.policy import CandidatePolicy
from repro.core.config import FeatureConfig
from repro.core.pipeline import FEATURE_DTYPE, NUM_NAME_DISTANCES
from repro.core.property_features import PropertyFeatureTable
from repro.data.model import Dataset, PropertyRef
from repro.data.pairs import PairSet, PropertyPairs, cross_source_index_pairs
from repro.errors import ConfigurationError


def _positions_in(sorted_keys: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Index of each of ``keys`` in ``sorted_keys``, ``-1`` where absent."""
    if len(sorted_keys) == 0:
        return np.full(len(keys), -1, dtype=np.intp)
    positions = np.minimum(np.searchsorted(sorted_keys, keys), len(sorted_keys) - 1)
    return np.where(sorted_keys[positions] == keys, positions, -1).astype(np.intp)


class PairUniverse(PropertyPairs):
    """The candidate cross-source pairs of a dataset, enumerated once.

    Candidate generation is policy-driven: under the default ``null``
    :class:`~repro.blocking.policy.CandidatePolicy` the universe holds
    every cross-source pair, in the order of the seed nested loop, and
    :func:`repro.data.pairs.build_pairs` is its ``subset``.  Under a
    blocking policy only the blocker's candidates
    are enumerated -- the full cross product is never materialised --
    and every downstream consumer (subsets, feature stores, scoring)
    automatically operates on the pruned universe.  Pair identity is
    tracked as sorted index pairs into the sorted property list, never
    as per-pair ``frozenset`` keys: row ``r`` holds the pair whose key
    ``i * len(properties) + j`` is ``_keys[r]``, and because every
    policy enumerates ``(i, j)`` lexicographically the key array is
    sorted, so row lookup is one ``searchsorted``.

    The universe holds arrays only: the keys, a label per row and the
    sorted property refs.  A :class:`PairSet` of its candidates is a
    row array over it (:meth:`subset`), and pair objects are built only
    for the rows a caller asks for (:meth:`pairs_at`).
    """

    def __init__(
        self,
        dataset: Dataset,
        policy: CandidatePolicy | None = None,
        *,
        embeddings=None,
        blocker: Blocker | None = None,
    ) -> None:
        super().__init__(dataset)
        self.policy = policy if policy is not None else CandidatePolicy.null()
        self._all_sources = set(dataset.sources())
        properties = self._refs.tolist()
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
        ends = np.fromiter(chain.from_iterable(index_pairs), dtype=np.int64)
        ends = ends.reshape(-1, 2)
        left, right = ends[:, 0], ends[:, 1]
        self._keys = left * len(properties) + right
        self._keys.setflags(write=False)
        #: Ground truth of each row, read-only.
        self.labels = self._labels_of(left, right)

    def __len__(self) -> int:
        return len(self._keys)

    def ends(self, rows: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Property indices ``(left, right)`` of universe ``rows`` (default all).

        Indices address ``dataset.properties()`` -- and so the rows of
        any :class:`PropertyFeatureTable` built from the same dataset.
        """
        keys = self._keys if rows is None else self._keys[rows]
        width = max(len(self._index_of), 1)
        return keys // width, keys % width

    def _selected(self, sources: list[str] | None) -> set[str]:
        if sources is None:
            return self._all_sources
        unknown = set(sources) - self._all_sources
        if unknown:
            raise ConfigurationError(f"unknown sources: {sorted(unknown)}")
        return set(sources)

    def _rows_in(self, sources: list[str] | None, within: bool) -> np.ndarray:
        selected = self._selected(sources)
        chosen = np.array(
            [name in selected for name in self._source_names], dtype=bool
        )
        left, right = self.ends()
        inside = (
            chosen[self._property_source[left]] & chosen[self._property_source[right]]
        )
        return np.flatnonzero(inside == within)

    def subset(
        self, sources: list[str] | None = None, *, within: bool = True
    ) -> PairSet:
        """The pairs whose sources are both in ``sources`` (``within``), or not.

        A fresh :class:`PairSet` on every call: one vectorised mask over
        the rows, no pair objects.  ``sources=None`` selects every
        source; an unknown one raises :class:`ConfigurationError`.
        """
        return PairSet(self, self._rows_in(sources, within))

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
        total = self.total_cross_pairs()
        candidates = len(self)
        true_total = len(self.dataset.matching_pairs())
        kept_true = int(self.labels.sum())
        return {
            "policy": self.policy.label,
            "candidates": candidates,
            "total_pairs": total,
            "reduction_ratio": 1.0 - candidates / total if total else 0.0,
            "pair_recall": kept_true / true_total if true_total else 1.0,
        }

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
        selected = self._selected(sources)
        slice_true = 0
        for key in self.dataset.matching_pairs():
            left, right = tuple(key)
            both_inside = left.source in selected and right.source in selected
            if within == both_inside:
                slice_true += 1
        kept_true = int(self.labels[self._rows_in(sources, within)].sum())
        return slice_true - kept_true

    def lookup_rows(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        """Universe row of each (unordered) pair, ``-1`` where it has none.

        ``left`` and ``right`` index ``dataset.properties()``.  A pair
        has no row when both ends sit in one source or the policy
        pruned it.
        """
        low, high = np.minimum(left, right), np.maximum(left, right)
        return _positions_in(self._keys, low * len(self._index_of) + high)

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


class PairFeatureStore:
    """Full-width pair features over a :class:`PairUniverse`, shared.

    No pair matrix: the store keeps the property rows in full-matrix
    columns (397 on cameras) and one float32 distance row per distinct
    name pair of the universe (17,987 × 8), which each universe row
    addresses through an int32 id.  A request is a :class:`PairSet`
    over this store's universe or over other pairs of the same dataset:
    another universe's, or explicit pairs
    (:func:`~repro.data.pairs.explicit_pairs`) that may hold pairs a
    blocked universe pruned.  It resolves once to left and right
    property rows and a name row per pair, and every gather computes
    from those by :meth:`~repro.core.pipeline.FeatureSchema.pair_rows`.
    The store keeps no per-request state, so concurrent readers share
    it without a lock; its tables and every served matrix are
    read-only.
    """

    def __init__(
        self,
        table: PropertyFeatureTable,
        universe: PairUniverse,
        *,
        grown_from: "PairFeatureStore | None" = None,
    ) -> None:
        if table.dataset_fingerprint != universe.dataset_fingerprint:
            raise ConfigurationError(
                "feature table and pair universe come from different datasets"
            )
        self.table = table
        self.universe = universe
        self.dataset_fingerprint = universe.dataset_fingerprint
        self.schema = table.pipeline.schema
        self._property_rows = self.schema.property_rows(table)
        self._property_rows.setflags(write=False)
        left, right = universe.ends()
        #: Sorted codes of the universe's distinct name pairs (the name
        #: table's row order) and each universe row's name-pair id.
        self._codes, first, pair_ids = np.unique(
            table.name_codes(left, right), return_index=True, return_inverse=True
        )
        self._name_pair = pair_ids.reshape(-1).astype(np.int32)
        self._name_rows = np.empty(
            (len(self._codes), NUM_NAME_DISTANCES), dtype=FEATURE_DTYPE
        )
        fresh = np.ones(len(self._codes), dtype=bool)
        if grown_from is not None:
            # Old name rows carry over by name: old name ids map into our
            # sorted names increasingly, so re-coded old codes stay sorted.
            index = {name: i for i, name in enumerate(table.names)}
            remap = np.array([index[name] for name in grown_from.table.names])
            old, width = grown_from._codes, len(grown_from.table.names)
            old = remap[old // width] * len(table.names) + remap[old % width]
            at = _positions_in(old, self._codes)
            fresh = at < 0
            self._name_rows[~fresh] = grown_from._name_rows[at[~fresh]]
        # The rest go through the kernel in the universe's first-use
        # order: the memo order a full pass over the universe gives.
        fresh = np.flatnonzero(fresh)
        fresh = fresh[np.argsort(first[fresh])]
        self._name_rows[fresh] = self.pipeline.name_pair_rows(
            table, left[first[fresh]], right[first[fresh]]
        )
        self._name_rows.setflags(write=False)

    @property
    def pipeline(self):
        """The :class:`~repro.core.pipeline.FeaturePipeline` rows come from."""
        return self.table.pipeline

    @property
    def nbytes(self) -> int:
        """Resident bytes of the property and name-pair tables and the universe."""
        own = (self._property_rows, self._codes, self._name_pair, self._name_rows)
        universe = (self.universe._keys, self.universe.labels)
        return sum(array.nbytes for array in own + universe)

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

    def with_source(self, addition: Dataset) -> tuple["PairFeatureStore", PairSet]:
        """A *new* store with ``addition`` fused in; this store untouched.

        Returns the store and the new pairs, as rows of its universe.
        The only delta path (:meth:`LeapmeMatcher.with_source` wraps
        it): callers swap the successor in while in-flight readers keep
        the old one.  Only the new properties are featurized (the
        pipeline's row cache serves the rest) and only name pairs this
        store lacks reach the distance kernel.  The merged universe
        inherits this store's policy *and* resolved blocker, so old
        properties' sketches are memo hits.  Every gathered row equals a
        cold rebuild's; the stores share the pipeline, nothing mutable.
        """
        combined = self.universe.dataset.merged_with(addition)
        table = PropertyFeatureTable(
            combined, self.table.pipeline.embeddings, pipeline=self.table.pipeline
        )
        universe = PairUniverse(
            combined, self.universe.policy, blocker=self.universe._blocker
        )
        new_rows = np.flatnonzero(universe.rows_from(self.universe) < 0)
        grown = PairFeatureStore(table, universe, grown_from=self)
        return grown, PairSet(universe, new_rows)

    def _resolve(
        self, pairs: PairSet
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``pairs`` as property rows, name-pair ids and the name table.

        The one place a request's kind matters.  A set over another
        dataset raises :class:`ConfigurationError`, on every policy.  A
        set over this store's universe reads its rows' name ids.  Any
        other set of the dataset finds its name ids by name-pair code; a
        name pair the table lacks (only pairs a blocked universe pruned
        can have one) goes through the distance memo into rows appended
        to this request's table.
        """
        if pairs.universe.dataset_fingerprint != self.dataset_fingerprint:
            raise self._not_in_universe()
        left, right = pairs.ends()
        if pairs.universe is self.universe:
            return left, right, self._name_pair[pairs.rows], self._name_rows
        names = _positions_in(self._codes, self.table.name_codes(left, right))
        absent = np.flatnonzero(names < 0)
        if len(absent) == 0:
            return left, right, names, self._name_rows
        names[absent] = len(self._codes) + np.arange(len(absent))
        extra = self.pipeline.name_pair_rows(self.table, left[absent], right[absent])
        return left, right, names, np.concatenate([self._name_rows, extra])

    def _not_in_universe(self) -> ConfigurationError:
        return ConfigurationError(
            "pair is not part of this dataset's cross-source universe"
            + (
                f" under blocking policy {self.universe.policy.label!r}"
                if self.universe.is_blocked
                else ""
            )
        )

    def block_reader(
        self, pairs: PairSet, columns
    ) -> tuple[int, Callable[[int, int], np.ndarray]]:
        """Resolve ``pairs`` once: their count and a reader of their rows.

        ``read(start, stop)`` is the read-only matrix of pairs
        ``start:stop`` over full-matrix ``columns`` (a slice or an index
        array), computed by
        :meth:`~repro.core.pipeline.FeatureSchema.pair_rows`; a shared
        score pass reads the union of several configs' columns this way.
        """
        left, right, names, name_rows = self._resolve(pairs)

        def read(start: int, stop: int) -> np.ndarray:
            served = self.schema.pair_rows(
                self._property_rows,
                left[start:stop],
                right[start:stop],
                name_rows[names[start:stop]],
                columns,
            )
            served.setflags(write=False)
            return served

        return len(left), read

    def gather(self, pairs: PairSet, columns) -> np.ndarray:
        """Read-only matrix of ``pairs`` over full-matrix ``columns``."""
        count, read = self.block_reader(pairs, columns)
        return read(0, count)

    def features(self, pairs: PairSet, config: FeatureConfig) -> np.ndarray:
        """Read-only feature matrix for ``pairs`` under ``config``."""
        return self.gather(pairs, self.schema.active_columns(config))
