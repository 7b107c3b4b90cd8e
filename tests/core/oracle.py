"""The one-call pair matrix the feature store is tested against.

A store gathers its rows block by block through its universe; this is
the same featurization with no universe or store in between: the table
rows of each pair's ends go straight to the schema's pair rows.  Name
distances are computed only when the config uses them.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import FeatureConfig
from repro.core.pipeline import FEATURE_DTYPE, NUM_NAME_DISTANCES


def pair_matrix(
    table, left_rows: np.ndarray, right_rows: np.ndarray, config: FeatureConfig
) -> np.ndarray:
    """``config``'s float32 matrix for the pairs ``(left_rows[k], right_rows[k])``
    of a :class:`~repro.core.property_features.PropertyFeatureTable`."""
    pipeline, schema = table.pipeline, table.pipeline.schema
    names = np.zeros((len(left_rows), NUM_NAME_DISTANCES), dtype=FEATURE_DTYPE)
    if schema.block("name_distances").used_by(config):
        names = pipeline.name_pair_rows(table, left_rows, right_rows)
    rows, columns = schema.property_rows(table), schema.active_columns(config)
    return schema.pair_rows(rows, left_rows, right_rows, names, columns)
