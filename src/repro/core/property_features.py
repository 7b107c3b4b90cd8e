"""Property features: ``pFeatures`` of Algorithm 1 (Table I rows 5-6).

A :class:`PropertyFeatureTable` holds, for every property of a dataset,
the columnar float32 outputs of the property-level pipeline stages
(:mod:`repro.core.pipeline`):

* ``property_aggregate`` -- averaged instance meta-features and
  averaged instance embeddings (row 5);
* ``name_embedding``     -- the average word embedding of the name (row 6).

The table is matrix-shaped (one row per property) so pair features can
be assembled with vectorised indexing rather than per-pair Python work.
Construction goes through a :class:`~repro.core.pipeline.FeaturePipeline`;
passing a shared pipeline lets tables for overlapping datasets (grid
splits, incrementally ingested sources) reuse cached per-property rows
instead of refeaturizing.
"""

from __future__ import annotations

import numpy as np

from repro.core.instance_features import NUM_META_FEATURES
from repro.core.pipeline import FeaturePipeline
from repro.data.model import Dataset, PropertyRef
from repro.embeddings.base import WordEmbeddings
from repro.errors import ConfigurationError


class PropertyFeatureTable:
    """Per-property feature matrices for one dataset.

    Attributes
    ----------
    refs:
        Property order; row ``i`` of every matrix describes ``refs[i]``.
    meta:
        ``(n_properties, 29)`` -- averaged instance meta-features
        (a view of the ``property_aggregate`` stage columns).
    value_embedding:
        ``(n_properties, d)`` -- averaged instance embeddings (ditto).
    name_embedding:
        ``(n_properties, d)`` -- name embeddings.
    names:
        Distinct lowercased property names, sorted -- the name-distance
        memo's canonical key order.
    name_ids:
        ``(n_properties,)`` -- index of each row's lowercased name in
        ``names``, so pair assembly deduplicates name pairs as integers.

    All matrices are read-only float32 stage outputs.
    """

    def __init__(
        self,
        dataset: Dataset,
        embeddings: WordEmbeddings,
        pipeline: FeaturePipeline | None = None,
    ) -> None:
        if pipeline is None:
            pipeline = FeaturePipeline(embeddings)
        elif pipeline.embeddings is not embeddings:
            raise ConfigurationError(
                "feature pipeline is bound to a different embedding space"
            )
        self.pipeline = pipeline
        #: Content fingerprint of the dataset the table was built from.
        self.dataset_fingerprint: str = dataset.fingerprint()
        self.refs: list[PropertyRef] = dataset.properties()
        lowered = [ref.name.lower() for ref in self.refs]
        self.names: list[str] = sorted(set(lowered))
        name_id = {name: i for i, name in enumerate(self.names)}
        self.name_ids = np.array([name_id[name] for name in lowered], dtype=np.int64)
        self.name_ids.setflags(write=False)
        self._columns = pipeline.property_columns(dataset)
        aggregate = self._columns["property_aggregate"]
        self.meta = aggregate[:, :NUM_META_FEATURES]
        self.value_embedding = aggregate[:, NUM_META_FEATURES:]
        self.name_embedding = self._columns["name_embedding"]

    def __len__(self) -> int:
        return len(self.refs)

    @property
    def embedding_dimension(self) -> int:
        """Dimensionality of the embedding blocks."""
        return self.name_embedding.shape[1]

    def stage_columns(self, stage_name: str) -> np.ndarray:
        """Columnar output of one property-level stage, ``(n, width)``."""
        try:
            return self._columns[stage_name]
        except KeyError:
            raise ConfigurationError(
                f"no property-level stage named {stage_name!r}"
            ) from None

    def name_codes(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        """Order-independent code of each row pair's lowercased name pair.

        ``min * len(names) + max`` of the two name ids: the smaller id is
        the canonical first name, so codes sort as the name pairs do.
        """
        low = np.minimum(self.name_ids[left], self.name_ids[right])
        return low * len(self.names) + np.maximum(self.name_ids[left], self.name_ids[right])
