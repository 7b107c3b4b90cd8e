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
    """Labelled pairs: a plain list, or rows of a pair universe.

    A set made by :meth:`repro.core.feature_cache.PairUniverse.subset`
    (or sampled from one) carries its ``universe`` and a read-only
    ``intp`` array of universe ``rows``.  Its labels gather from the
    universe's label array, and its :class:`LabeledPair` objects are
    built only on the first access to :attr:`pairs` -- by baselines,
    CSV/JSON output or the graph; the LEAPME path reads rows and labels
    only.  A set made from a list holds that list; ``universe`` and
    ``rows`` are then ``None``.
    """

    def __init__(
        self, pairs: list[LabeledPair] | None = None, *, universe=None, rows=None
    ) -> None:
        self._pairs = pairs
        self.universe = universe
        self.rows = rows

    @classmethod
    def of_rows(cls, universe, rows: np.ndarray) -> PairSet:
        """The pairs at ``rows`` of ``universe`` (rows become read-only)."""
        rows = np.asarray(rows, dtype=np.intp)
        rows.setflags(write=False)
        return cls(universe=universe, rows=rows)

    @property
    def pairs(self) -> list[LabeledPair]:
        """The pairs as objects, built from the universe on first access."""
        if self._pairs is None:
            self._pairs = self.universe.pairs_at(self.rows)
        return self._pairs

    def __len__(self) -> int:
        return len(self.rows) if self._pairs is None else len(self._pairs)

    def __iter__(self):
        return iter(self.pairs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PairSet):
            return NotImplemented
        if self.universe is not None and self.universe is other.universe:
            return bool(np.array_equal(self.rows, other.rows))
        return self.pairs == other.pairs

    def take(self, positions: np.ndarray) -> list[LabeledPair]:
        """The pairs at ``positions`` of this set, as objects."""
        if self._pairs is None:
            return self.universe.pairs_at(self.rows[positions])
        return [self._pairs[index] for index in np.asarray(positions).tolist()]

    def sides(
        self, positions: np.ndarray
    ) -> tuple[list[PropertyRef], list[PropertyRef]]:
        """Left and right refs of the pairs at ``positions``; builds no pair."""
        if self._pairs is None:
            return self.universe.sides(self.rows[positions])
        taken = self.take(positions)
        return [pair.left for pair in taken], [pair.right for pair in taken]

    def select(self, positions: np.ndarray) -> PairSet:
        """The sub-set at ``positions``; universe-backed if this set is."""
        if self.universe is not None:
            return PairSet.of_rows(self.universe, self.rows[positions])
        return PairSet(self.take(positions))

    def positives(self) -> list[LabeledPair]:
        """Only the matching pairs."""
        return self.take(np.flatnonzero(self.labels()))

    def negatives(self) -> list[LabeledPair]:
        """Only the non-matching pairs."""
        return self.take(np.flatnonzero(self.labels() == 0))

    def labels(self) -> np.ndarray:
        """Labels as a read-only int array (1 = match)."""
        if self.universe is not None:
            labels = self.universe.labels[self.rows].astype(np.int64)
        else:
            labels = np.array(
                [int(pair.label) for pair in self._pairs], dtype=np.int64
            )
        labels.setflags(write=False)
        return labels

    def refs(self) -> list[PropertyRef]:
        """All distinct property refs mentioned by the pairs, sorted."""
        seen: set[PropertyRef] = set()
        for pair in self.pairs:
            seen.add(pair.left)
            seen.add(pair.right)
        return sorted(seen)


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

    Parameters
    ----------
    dataset:
        The dataset providing properties and ground truth.
    sources:
        When given, restricts which sources participate.
    within:
        ``True`` (default) keeps pairs where *both* sources are in
        ``sources`` -- the paper's training regime ("examples that involve
        two sources of data in the training set").  ``False`` keeps the
        complement: pairs where at least one source is outside
        ``sources`` -- the paper's test regime ("test it with the rest").
    """
    all_sources = dataset.sources()
    if sources is None:
        selected = set(all_sources)
    else:
        unknown = set(sources) - set(all_sources)
        if unknown:
            raise ConfigurationError(f"unknown sources: {sorted(unknown)}")
        selected = set(sources)
    properties = dataset.properties()
    inside = [ref.source in selected for ref in properties]
    pairs: list[LabeledPair] = []
    for i, j in cross_source_index_pairs(properties):
        if within != (inside[i] and inside[j]):
            continue
        left, right = properties[i], properties[j]
        pairs.append(LabeledPair(left, right, dataset.is_match(left, right)))
    return PairSet(pairs)


def sample_training_pairs(
    candidates: PairSet,
    negative_ratio: float = 2.0,
    rng: np.random.Generator | None = None,
) -> PairSet:
    """Down-sample negatives to ``negative_ratio`` per positive.

    All positives are kept.  When there are fewer negatives than the ratio
    requires, all negatives are kept.  Order is shuffled so mini-batch
    training does not see label blocks.  The draw is an index selection
    over ``candidates.labels()``, so a sample of a universe-backed set
    is universe-backed and builds no pair objects.
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
