"""Cross-source property pairs: enumeration, labelling, negative sampling.

Implements the evaluation protocol of Section V-B:

* candidate pairs are all pairs of properties from *different* sources
  (Algorithm 1 lines 6-8 only pairs across sources);
* a pair is positive when both properties align to the same reference
  property;
* "the training data consists of two negative (non-matching) pairs of
  properties for every positive (matching) pair, and the negative pairs
  are randomly selected" -- negative sampling applies to the training
  side only; the test side keeps every candidate pair.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.data.model import Dataset, PropertyRef
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class LabeledPair:
    """An ordered property pair with its ground-truth label."""

    left: PropertyRef
    right: PropertyRef
    label: bool

    @property
    def key(self) -> frozenset[PropertyRef]:
        """Unordered identity of the pair."""
        return frozenset((self.left, self.right))


class PropertyPairs:
    """Pairs of one dataset's properties as index arrays: a set's universe.

    Row ``r`` joins the properties ``ends(r)`` indexes in
    ``dataset.properties()``.  Subclasses define ``ends`` and set a
    read-only ``labels``: :class:`repro.core.feature_cache.PairUniverse`
    enumerates candidates, :class:`ExplicitPairs` holds pairs a caller
    names.  Refs, labels and :class:`LabeledPair` objects are built here.
    """

    def __init__(self, dataset: Dataset) -> None:
        self.dataset = dataset
        self.dataset_fingerprint = dataset.fingerprint()
        properties = dataset.properties()
        bounds = source_block_bounds(properties)
        self._block_sizes = [end - start for start, end in bounds]
        #: Source name of each source id; ``_property_source[i]`` is the
        #: source id of property ``i`` (sources sort as their blocks do).
        self._source_names = [properties[start].source for start, _ in bounds]
        self._property_source = np.repeat(
            np.arange(len(bounds), dtype=np.intp), self._block_sizes
        )
        self._refs = np.empty(len(properties), dtype=object)
        self._refs[:] = properties

    def _labels_of(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        """:meth:`Dataset.is_match` over index arrays, read-only."""
        reference_ids: dict[str, int] = {}
        reference = np.array(
            [
                -1
                if (aligned := self.dataset.reference_of(ref)) is None
                else reference_ids.setdefault(aligned, len(reference_ids))
                for ref in self._refs.tolist()
            ],
            dtype=np.int64,
        )
        labels = (
            (reference[left] >= 0)
            & (reference[left] == reference[right])
            & (self._property_source[left] != self._property_source[right])
        )
        labels.setflags(write=False)
        return labels

    def sides(self, rows: np.ndarray) -> tuple[list[PropertyRef], list[PropertyRef]]:
        """Left and right property refs of ``rows``."""
        left, right = self.ends(rows)
        return self._refs[left].tolist(), self._refs[right].tolist()

    def pairs_at(self, rows: np.ndarray) -> list[LabeledPair]:
        """The :class:`LabeledPair` objects of ``rows``, built now."""
        return list(map(LabeledPair, *self.sides(rows), self.labels[rows].tolist()))

    @property
    def pairs(self) -> list[LabeledPair]:
        """Every pair as an object, built afresh on each access."""
        return self.pairs_at(np.arange(len(self)))


class ExplicitPairs(PropertyPairs):
    """Pairs a caller names, ``(left[r], right[r])``: an index-only universe.

    The caller's orientation is kept (SemProp and AML score ordered
    name pairs, the clusterer (new, existing)).  An index outside
    ``dataset.properties()`` or a same-source pair raises
    :class:`ConfigurationError`.
    """

    def __init__(self, dataset: Dataset, left, right) -> None:
        super().__init__(dataset)
        ends = np.array([left, right], dtype=np.intp).reshape(2, -1)
        source = self._property_source
        if not ((ends >= 0) & (ends < len(source))).all() or (
            source[ends[0]] == source[ends[1]]
        ).any():
            raise ConfigurationError(
                "pair is not part of this dataset's cross-source universe"
            )
        ends.setflags(write=False)
        self._left, self._right = ends

    @cached_property
    def labels(self) -> np.ndarray:
        """Ground truth of each row, read-only, computed on first use."""
        return self._labels_of(self._left, self._right)

    def __len__(self) -> int:
        return len(self._left)

    def ends(self, rows: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Property indices ``(left, right)`` of ``rows`` (default all)."""
        if rows is None:
            return self._left, self._right
        return self._left[rows], self._right[rows]


class PairSet:
    """Labelled pairs: rows of a :class:`PropertyPairs`.

    The one pair request every matcher and feature store accepts: a
    ``universe`` and a read-only ``intp`` array of its ``rows``.  Sets
    come from :meth:`repro.core.feature_cache.PairUniverse.subset`
    (which :func:`build_pairs` wraps), sampled from one or selected
    from one, or -- for pairs a caller names -- from
    :func:`explicit_pairs`, built once at the edge.  Labels gather from
    the universe's label array, and :class:`LabeledPair` objects are
    built only for a caller that asks for them -- CSV/JSON output or
    the graph; matchers read rows and property ends only.
    :attr:`pairs` builds the objects afresh on each access, so index a
    list taken once, not ``pairs[i]`` in a loop.
    """

    def __init__(self, universe: PropertyPairs, rows: np.ndarray) -> None:
        rows = np.asarray(rows, dtype=np.intp)
        rows.setflags(write=False)
        self.universe = universe
        self.rows = rows

    @property
    def pairs(self) -> list[LabeledPair]:
        """The pairs as objects, built from the universe now."""
        return self.universe.pairs_at(self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.pairs)

    def __eq__(self, other) -> bool:
        """The same rows of the same universe."""
        if not isinstance(other, PairSet):
            return NotImplemented
        return self.universe is other.universe and bool(
            np.array_equal(self.rows, other.rows)
        )

    def ends(self) -> tuple[np.ndarray, np.ndarray]:
        """Property indices ``(left, right)`` of the pairs; builds no pair."""
        return self.universe.ends(self.rows)

    def take(self, positions: np.ndarray) -> list[LabeledPair]:
        """The pairs at ``positions`` of this set, as objects."""
        return self.universe.pairs_at(self.rows[positions])

    def sides(
        self, positions: np.ndarray
    ) -> tuple[list[PropertyRef], list[PropertyRef]]:
        """Left and right refs of the pairs at ``positions``; builds no pair."""
        return self.universe.sides(self.rows[positions])

    def select(self, positions: np.ndarray) -> PairSet:
        """The sub-set at ``positions``, rows of the same universe."""
        return PairSet(self.universe, self.rows[positions])

    def positives(self) -> list[LabeledPair]:
        """Only the matching pairs."""
        return self.take(np.flatnonzero(self.labels()))

    def negatives(self) -> list[LabeledPair]:
        """Only the non-matching pairs."""
        return self.take(np.flatnonzero(self.labels() == 0))

    def labels(self) -> np.ndarray:
        """Labels as a read-only int array (1 = match)."""
        labels = self.universe.labels[self.rows].astype(np.int64)
        labels.setflags(write=False)
        return labels

    def refs(self) -> list[PropertyRef]:
        """All distinct property refs mentioned by the pairs, sorted."""
        left, right = self.universe.sides(self.rows)
        return sorted(set(left) | set(right))


def explicit_pairs(dataset: Dataset, left, right) -> PairSet:
    """Every pair of ``ExplicitPairs(dataset, left, right)`` as a set."""
    universe = ExplicitPairs(dataset, left, right)
    return PairSet(universe, np.arange(len(universe)))


def source_block_bounds(
    properties: Sequence[PropertyRef],
) -> list[tuple[int, int]]:
    """``(start, end)`` of each same-source run in a sorted ref sequence.

    :meth:`Dataset.properties` returns refs sorted by ``(source, name)``,
    so every source occupies one contiguous block.  Working on block
    bounds lets pair enumeration skip same-source pairs structurally
    instead of comparing ``.source`` strings per pair.
    """
    bounds: list[tuple[int, int]] = []
    start = 0
    for index in range(1, len(properties) + 1):
        if (
            index == len(properties)
            or properties[index].source != properties[start].source
        ):
            bounds.append((start, index))
            start = index
    return bounds


def cross_source_index_pairs(
    properties: Sequence[PropertyRef],
) -> Iterator[tuple[int, int]]:
    """Yield sorted ``(i, j)`` index pairs spanning two different sources.

    The lexicographic ``(i, j)`` order over sorted properties is exactly
    the historical nested-loop enumeration order, so consumers that pin
    byte-identical pair sequences can build on this generator.  Unlike
    the nested loop it allocates nothing per pair (no ``frozenset`` keys)
    and performs no per-pair source comparison.
    """
    total = len(properties)
    for start, end in source_block_bounds(properties):
        for i in range(start, end):
            yield from ((i, j) for j in range(end, total))


def build_pairs(
    dataset: Dataset,
    sources: list[str] | None = None,
    *,
    within: bool = True,
) -> PairSet:
    """Enumerate labelled cross-source pairs.

    The rows of a null-policy
    :class:`~repro.core.feature_cache.PairUniverse` of ``dataset``
    that ``subset(sources, within=within)`` selects: every
    cross-source pair, in lexicographic ``(i, j)`` order over the
    sorted properties.

    Parameters
    ----------
    dataset:
        The dataset providing properties and ground truth.
    sources:
        When given, restricts which sources participate; an unknown
        source raises :class:`ConfigurationError`.
    within:
        ``True`` (default) keeps pairs where *both* sources are in
        ``sources`` -- the paper's training regime ("examples that involve
        two sources of data in the training set").  ``False`` keeps the
        complement: pairs where at least one source is outside
        ``sources`` -- the paper's test regime ("test it with the rest").
    """
    # repro.core imports this module, so the universe is imported here.
    from repro.core.feature_cache import PairUniverse

    return PairUniverse(dataset).subset(sources, within=within)


def sample_training_pairs(
    candidates: PairSet,
    negative_ratio: float = 2.0,
    rng: np.random.Generator | None = None,
) -> PairSet:
    """Down-sample negatives to ``negative_ratio`` per positive.

    All positives are kept.  When there are fewer negatives than the ratio
    requires, all negatives are kept.  Order is shuffled so mini-batch
    training does not see label blocks.  The draw is an index selection
    over ``candidates.labels()``: the sample is rows of the same
    universe, and no pair object is built.
    """
    if negative_ratio < 0:
        raise ConfigurationError(f"negative_ratio must be >= 0, got {negative_ratio}")
    rng = rng if rng is not None else np.random.default_rng(0)
    labels = candidates.labels()
    positives = np.flatnonzero(labels)
    negatives = np.flatnonzero(labels == 0)
    wanted = int(round(negative_ratio * len(positives)))
    if wanted < len(negatives):
        negatives = negatives[rng.choice(len(negatives), size=wanted, replace=False)]
    combined = np.concatenate([positives, negatives])
    return candidates.select(combined[rng.permutation(len(combined))])
