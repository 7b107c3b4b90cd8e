"""Pair features: ``ppFeatures`` of Algorithm 1 (Table I rows 7-15).

For each pair of properties the classifier receives, depending on the
active :class:`~repro.core.config.FeatureConfig`:

* the element-wise difference of the two property feature vectors
  (row 7), restricted to the blocks the config enables -- instance
  meta-features, instance embeddings, name embeddings;
* the eight string distances between the property names (rows 8-15),
  the names/non-embedding block.

We use the *absolute* difference: Table I says "the difference between
the features vectors", and a signed difference would make the feature
vector depend on pair orientation, which the unordered matching task
cannot justify (the original implementation trains on randomly oriented
pairs, which asks the network to learn the same symmetry from data).

Assembly is delegated to the staged pipeline in
:mod:`repro.core.pipeline`: the column geometry lives in
:class:`~repro.core.pipeline.FeatureSchema` (the single source of
truth, shared with the feature store, permutation importance and
persisted bundles) and matrices come out as float32.  The memoised
name-distance kernel (:func:`name_distances`,
:func:`name_distance_block`) also lives there and is re-exported here
for its historical callers.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import FeatureConfig
from repro.core.pipeline import (
    NUM_NAME_DISTANCES,
    FeatureSchema,
    name_distance_block,
    name_distances,
    split_pairs,
)
from repro.core.property_features import PropertyFeatureTable
from repro.data.model import PropertyRef
from repro.data.pairs import LabeledPair

__all__ = [
    "NUM_NAME_DISTANCES",
    "FeatureSchema",
    "name_distances",
    "name_distance_block",
    "feature_block_names",
    "pair_feature_matrix",
]


def feature_block_names(config: FeatureConfig, dimension: int) -> list[str]:
    """Human-readable names of the active feature columns, in order."""
    return FeatureSchema(dimension).column_names(config)


def pair_feature_matrix(
    table: PropertyFeatureTable,
    pairs: list[LabeledPair] | list[tuple[PropertyRef, PropertyRef]],
    config: FeatureConfig,
) -> np.ndarray:
    """Assemble the pair feature matrix ``(n_pairs, n_features)``.

    ``pairs`` may be :class:`LabeledPair` objects or plain
    ``(left, right)`` tuples; both sides resolve to table rows once.
    The matrix is float32 (:data:`~repro.core.pipeline.FEATURE_DTYPE`),
    assembled from the table's cached columnar stage outputs.
    """
    lefts, rights = split_pairs(pairs)
    return table.pipeline.pair_matrix(
        table, table.rows_of(lefts), table.rows_of(rights), config
    )
