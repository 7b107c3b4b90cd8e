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


class PairSet:
    """Labelled pairs: rows of a pair universe.

    Every set is made by
    :meth:`repro.core.feature_cache.PairUniverse.subset` (which
    :func:`build_pairs` wraps), sampled from one or selected from one:
    it carries its ``universe`` and a read-only ``intp`` array of
    universe ``rows``.  Its labels gather from the universe's label
    array, and :class:`LabeledPair` objects are built only for a caller
    that asks for them -- baselines, CSV/JSON output or the graph; the
    LEAPME path reads rows and labels only, and a feature store reads a
    set over any universe of its dataset by the rows' property ends.
    :attr:`pairs` builds the objects afresh on each access, so index a
    list taken once, not ``pairs[i]`` in a loop.
    """

    def __init__(self, universe, rows: np.ndarray) -> None:
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
