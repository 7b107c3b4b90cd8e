"""LEAPME: LEArning-based Property Matching with Embeddings.

The paper's primary contribution (Section IV).  The pieces map onto
Algorithm 1 as follows:

* :mod:`repro.core.instance_features` -- ``iFeatures`` (Table I rows 1-4):
  character-type, token-type and numeric meta-features plus the average
  word embedding of each instance value.
* :mod:`repro.core.property_features` -- ``pFeatures`` (rows 5-6): the
  per-property average of instance features and the name embedding,
  assembled into a :class:`PropertyFeatureTable`.
* :mod:`repro.core.pipeline` -- the featurization: the two property
  :class:`FeatureStage` producers, the :class:`FeatureSchema` table of
  pair-matrix blocks and the columnar float32 :class:`FeaturePipeline`
  with fingerprint-keyed per-property row caching.
* :mod:`repro.core.feature_cache` -- ``ppFeatures`` (rows 7-15): the
  :class:`PairFeatureStore` of every candidate pair's difference of
  property feature vectors plus eight name string distances, served
  filtered by the active :class:`FeatureConfig`.
* :mod:`repro.core.classifier` -- ``trainClassifier``: the dense network
  (128 -> 64 -> 2 softmax) with the paper's phased learning-rate schedule.
* :mod:`repro.core.matcher` -- the end-to-end :class:`LeapmeMatcher`
  producing a similarity graph over unlabeled pairs.

The nine evaluation configurations of Section V-A correspond to
``FeatureConfig(scope, kinds)`` with scope in {instances, names, both}
and kinds in {embedding, non_embedding, both}.
"""

from repro.core.api import Matcher
from repro.core.classifier import (
    FittedState,
    LeapmeClassifier,
    ResilientClassifier,
)
from repro.core.config import (
    FeatureConfig,
    FeatureKinds,
    FeatureScope,
    LeapmeConfig,
)
from repro.core.importance import (
    BlockImportance,
    permutation_importance,
    render_importance,
)
from repro.core.instance_features import (
    NUM_META_FEATURES,
    instance_meta_features,
    instance_meta_matrix,
)
from repro.core.feature_cache import PairFeatureStore, PairUniverse
from repro.core.matcher import LeapmeMatcher
from repro.core.pipeline import (
    FEATURE_DTYPE,
    FeaturePipeline,
    FeatureSchema,
    FeatureStage,
    ResolvedSchema,
    SchemaBlock,
)
from repro.core.property_features import PropertyFeatureTable

__all__ = [
    "Matcher",
    "FeatureScope",
    "FeatureKinds",
    "FeatureConfig",
    "LeapmeConfig",
    "NUM_META_FEATURES",
    "instance_meta_features",
    "instance_meta_matrix",
    "PropertyFeatureTable",
    "FEATURE_DTYPE",
    "FeaturePipeline",
    "FeatureSchema",
    "FeatureStage",
    "ResolvedSchema",
    "SchemaBlock",
    "PairFeatureStore",
    "PairUniverse",
    "LeapmeClassifier",
    "ResilientClassifier",
    "FittedState",
    "LeapmeMatcher",
    "BlockImportance",
    "permutation_importance",
    "render_importance",
]
