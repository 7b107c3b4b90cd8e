"""Source-level train/test splits.

The paper takes "a fraction of the sources of a dataset (at random) for
training" and runs 25 repetitions with "different random combinations of
training sources".  Splitting at the *source* level (not the pair level)
is essential: it guarantees the classifier never saw any property of a
test source during training.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from repro.data.model import Dataset
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class SourceSplit:
    """A partition of a dataset's sources into train and test."""

    train_sources: tuple[str, ...]
    test_sources: tuple[str, ...]

    def __post_init__(self) -> None:
        overlap = set(self.train_sources) & set(self.test_sources)
        if overlap:
            raise ConfigurationError(f"sources in both halves: {sorted(overlap)}")


def train_source_count(n_sources: int, train_fraction: float) -> int:
    """How many of ``n_sources`` sources :func:`split_sources` trains on.

    The fraction is rounded, then clamped: training needs two sources to
    form any cross-source pair, and testing needs at least one held-out
    source.  Two fractions can therefore train on the same number of
    sources (0.1 and 0.2 of 10 sources both give 2).
    """
    n_train = int(round(train_fraction * n_sources))
    return max(2, min(n_train, n_sources - 1)) if n_sources > 2 else 1


def split_sources(
    dataset: Dataset,
    train_fraction: float,
    rng: np.random.Generator | None = None,
) -> SourceSplit:
    """Randomly assign ``train_fraction`` of the sources to training.

    At least one source lands on each side whenever the dataset has two or
    more sources, so both the training pair set and the test pair set are
    non-empty by construction (training additionally needs >= 2 train
    sources to contain any cross-source pair; fractions are rounded but
    clamped to keep 2 on the training side when possible).
    """
    if not 0.0 < train_fraction < 1.0:
        raise ConfigurationError(
            f"train_fraction must be in (0, 1), got {train_fraction}"
        )
    rng = rng if rng is not None else np.random.default_rng(0)
    sources = dataset.sources()
    if len(sources) < 2:
        raise ConfigurationError(
            f"dataset {dataset.name!r} has {len(sources)} source(s); need >= 2"
        )
    n_train = train_source_count(len(sources), train_fraction)
    order = rng.permutation(len(sources))
    train = tuple(sorted(sources[int(i)] for i in order[:n_train]))
    test = tuple(sorted(sources[int(i)] for i in order[n_train:]))
    return SourceSplit(train_sources=train, test_sources=test)


def repeated_source_splits(
    dataset: Dataset,
    train_fraction: float,
    repetitions: int = 25,
    seed: int = 0,
) -> Iterator[SourceSplit]:
    """Yield ``repetitions`` independent random splits (the paper runs 25).

    Each repetition derives its generator from ``seed`` and the repetition
    index, so individual repetitions can be re-run in isolation.
    """
    if repetitions < 1:
        raise ConfigurationError(f"repetitions must be >= 1, got {repetitions}")
    for repetition in range(repetitions):
        rng = np.random.default_rng((seed, repetition))
        yield split_sources(dataset, train_fraction, rng)
