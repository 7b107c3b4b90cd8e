"""Staged feature pipeline: single source of truth for Table I featurization.

Featurization is decomposed into a registry of :class:`FeatureStage`
nodes forming a small DAG::

    instance_meta ---.
                      >-- property_aggregate --.
    instance_embedding                          >-- pair_diff
    name_embedding --------------------------- '
    name_distance  (pair-level, no property inputs)

* **instance-level** stages featurize one property-instance value
  (Table I rows 1-4);
* **property-level** stages reduce a property's instances to one row
  (rows 5-6), cached per *content fingerprint* so the same property is
  never featurized twice -- across grid cells, matchers, or
  incrementally ingested sources;
* **pair-level** stages emit the final matrix blocks (rows 7-15):
  absolute differences of property rows plus the eight name distances.

:class:`FeatureSchema` derives the full pair-matrix column geometry
from the registry.  It replaces both the former
``pair_features.FeatureLayout`` and ``importance._block_slices`` (which
duplicated the block map and could silently desync); a
:class:`ResolvedSchema` snapshot is persisted inside matcher bundles so
a loaded matcher can verify it scores with the geometry it was trained
on.

Stage outputs are stored as columnar ``float32`` arrays
(:data:`FEATURE_DTYPE`).  The float32 policy: per-row math runs in
float64 (identical to the seed implementation), and the result is cast
to float32 exactly once, when the row enters a column store.  Assembled
pair matrices therefore agree with the legacy float64 path within
float32 resolution, at half the memory.

Stage implementations must stay pure -- no ``repro.evaluation``
imports, no file writes (lint rule REP009) -- so prebuilt columns can be
shipped to worker processes via fork COW without side effects.
"""

from __future__ import annotations

import hashlib
import threading
from collections import Counter
from dataclasses import dataclass
from itertools import islice
from time import perf_counter

import numpy as np

from repro.core.config import FeatureConfig, FeatureKinds, FeatureScope
from repro.core.instance_features import (
    NUM_META_FEATURES,
    instance_embedding_matrix,
    instance_meta_matrix,
)
from repro.data.model import Dataset, PropertyRef
from repro.data.pairs import LabeledPair
from repro.embeddings.base import WordEmbeddings
from repro.errors import ConfigurationError, DataError
from repro.text.batch import name_distance_rows, unique_lowered_pairs
from repro.text.similarity import PAIR_DISTANCE_NAMES, name_distance_vector

#: Storage dtype of all stage outputs and assembled pair matrices.
FEATURE_DTYPE = np.float32

#: Number of name string-distance features (Table I rows 8-15).
NUM_NAME_DISTANCES = len(PAIR_DISTANCE_NAMES)


# ---------------------------------------------------------------------------
# Memoised name distances (moved here from pair_features so every layer --
# stores, direct assembly, benchmarks -- shares one cache).
# ---------------------------------------------------------------------------

#: Memoised distance vectors keyed on the (lowercased, sorted) name pair.
#: A plain dict rather than ``lru_cache`` so the batched kernel can probe
#: for misses and insert whole batches of results.  Entries stay float64
#: (the kernel's reference precision); casts happen at assembly.
_DISTANCE_CACHE: dict[tuple[str, str], np.ndarray] = {}

#: Upper bound on memoised pairs.  Rows are ~64 bytes plus key and dict
#: overhead, so the cap bounds the memo near 100 MiB -- small enough for
#: the long-lived follow daemon, large enough that no benchmark grid in
#: the repo ever evicts.  Eviction is insertion-order (FIFO): the memo
#: serves whole featurization passes, not point lookups, so recency
#: tracking per probe would cost more than the occasional recompute.
_DISTANCE_MEMO_CAP = 262_144

#: Optional write-through overflow of the memo, persisted across
#: processes (:class:`repro.text.distance_cache.DistanceCache`); wired
#: by the serve/match CLI paths via :func:`enable_persistent_distances`.
_PERSISTENT_DISTANCES = None


def clear_distance_memo() -> None:
    """Drop every memoised distance row (the in-process memo only)."""
    _DISTANCE_CACHE.clear()


def _evict_distance_overflow() -> None:
    overflow = len(_DISTANCE_CACHE) - _DISTANCE_MEMO_CAP
    if overflow > 0:
        for key in list(islice(iter(_DISTANCE_CACHE), overflow)):
            del _DISTANCE_CACHE[key]


def enable_persistent_distances(path):
    """Attach (and load) a persistent distance cache at ``path``.

    Previously persisted rows are folded into the in-process memo
    immediately; rows computed afterwards are recorded to the cache and
    written out by :func:`flush_persistent_distances`.  Returns the
    :class:`~repro.text.distance_cache.DistanceCache` for inspection.
    """
    global _PERSISTENT_DISTANCES
    from repro.text.distance_cache import DistanceCache

    cache = DistanceCache(path)
    _PERSISTENT_DISTANCES = cache
    _DISTANCE_CACHE.update(cache.items())
    _evict_distance_overflow()
    return cache


def disable_persistent_distances() -> None:
    """Detach the persistent cache (unsaved rows are discarded)."""
    global _PERSISTENT_DISTANCES
    _PERSISTENT_DISTANCES = None


def flush_persistent_distances() -> bool:
    """Atomically save the attached cache; False when detached or clean."""
    if _PERSISTENT_DISTANCES is None:
        return False
    return _PERSISTENT_DISTANCES.save()


def _canonical_name_pair(a: str, b: str) -> tuple[str, str]:
    a = a.lower()
    b = b.lower()
    return (b, a) if a > b else (a, b)


def name_distances(a: str, b: str) -> np.ndarray:
    """Memoised, order-independent name distance vector."""
    key = _canonical_name_pair(a, b)
    cached = _DISTANCE_CACHE.get(key)
    if cached is None:
        cached = _DISTANCE_CACHE[key] = np.array(name_distance_vector(*key))
        cached.setflags(write=False)
        if _PERSISTENT_DISTANCES is not None:
            _PERSISTENT_DISTANCES.record([key], [cached])
        _evict_distance_overflow()
    return cached


def name_distance_block(
    name_pairs: list[tuple[str, str]],
    *,
    dtype: np.dtype | type = np.float64,
    out: np.ndarray | None = None,
    counters: dict | None = None,
) -> np.ndarray:
    """Distance vectors for many name pairs, ``(n_pairs, 8)``.

    Cache-aware: each distinct canonical pair is probed once, pairs
    already memoised are served from the cache and only the missing
    ones go through the batched kernel.  Pass ``out`` to fill a
    preallocated block (its dtype wins over ``dtype``).  ``counters``,
    when given, has ``"cache_hit"`` incremented by the number of rows
    served from the memo and ``"computed"`` by the rows that needed the
    kernel -- the split the pipeline surfaces as ``stage_calls`` so
    incremental work avoidance is assertable.
    """
    n = len(name_pairs)
    block = out if out is not None else np.empty((n, NUM_NAME_DISTANCES), dtype=dtype)
    keys, inverse = unique_lowered_pairs(name_pairs)
    _scatter_distances(keys, inverse, block, counters)
    return block


def name_id_distance_block(
    names: list[str],
    left_ids: np.ndarray,
    right_ids: np.ndarray,
    out: np.ndarray,
    counters: dict | None = None,
) -> np.ndarray:
    """:func:`name_distance_block` over name ids instead of name strings.

    ``names`` are distinct lowercased names in sorted order, so the
    smaller id of a pair is its canonical first name.  One ``np.unique``
    over the pair codes finds the distinct name pairs; they are probed
    and computed in first-occurrence order, exactly as the string API
    would, then scattered back to every pair.
    """
    width = len(names)
    codes = np.minimum(left_ids, right_ids) * width + np.maximum(left_ids, right_ids)
    distinct, first, inverse = np.unique(codes, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    keys = [
        (names[code // width], names[code % width]) for code in distinct[order].tolist()
    ]
    _scatter_distances(keys, rank[inverse], out, counters)
    return out


def _scatter_distances(
    keys: list[tuple[str, str]],
    inverse: np.ndarray,
    block: np.ndarray,
    counters: dict | None,
) -> None:
    """Fill ``block[i]`` with the distance row of ``keys[inverse[i]]``.

    ``keys`` are distinct canonical name pairs in first-occurrence
    order.  Each is probed in the memo once; the misses go through the
    batched kernel in one call and are memoised (and recorded to the
    persistent cache) in that order -- the order a per-pair walk would
    insert them, so FIFO eviction and the saved cache are unchanged.
    """
    rows = np.empty((len(keys), NUM_NAME_DISTANCES))
    hit = np.ones(len(keys), dtype=bool)
    missing: list[tuple[str, str]] = []
    get = _DISTANCE_CACHE.get
    for position, key in enumerate(keys):
        cached = get(key)
        if cached is None:
            hit[position] = False
            missing.append(key)
        else:
            rows[position] = cached
    if missing:
        computed = name_distance_rows(missing)
        computed.setflags(write=False)
        # Cached entries are row views sharing the kernel's base array:
        # no per-row copies, and the read-only base protects them all.
        _DISTANCE_CACHE.update(zip(missing, computed))
        if _PERSISTENT_DISTANCES is not None:
            _PERSISTENT_DISTANCES.record(missing, computed)
        _evict_distance_overflow()
        rows[~hit] = computed
    block[...] = rows[inverse]
    if counters is not None:
        hits = int(np.count_nonzero(hit[inverse]))
        counters["cache_hit"] = counters.get("cache_hit", 0) + hits
        counters["computed"] = counters.get("computed", 0) + len(inverse) - hits


# ---------------------------------------------------------------------------
# Stages
# ---------------------------------------------------------------------------


class StageContext:
    """What a stage may see while computing: data, embeddings, a counter.

    Deliberately narrow -- stages receive no file handles, no evaluation
    machinery -- so they remain pure functions of dataset content
    (enforced by lint rule REP009).  One context serves one
    :meth:`FeaturePipeline.property_columns` call, so ``values`` -- the
    instance stages' per-value rows -- lives exactly as long as that
    call and never grows in a long-lived process.
    """

    __slots__ = ("dataset", "embeddings", "calls", "values")

    def __init__(self, dataset: Dataset, embeddings: WordEmbeddings) -> None:
        self.dataset = dataset
        self.embeddings = embeddings
        #: Computed units per stage in this call, folded into
        #: :attr:`FeaturePipeline.stage_calls` when the call ends.
        self.calls: Counter = Counter()
        #: ``{stage_name: {value: row}}`` -- instance rows featurized so far.
        self.values: dict[str, dict[str, np.ndarray]] = {}

    def value_rows(self, stage_name: str, values: list[str], featurize) -> np.ndarray:
        """``featurize(values)``, featurizing each distinct value once per call.

        Values already featurized for ``stage_name`` in this call are
        served from ``values``; only the rest go through ``featurize``
        (in first-occurrence order) and are credited to the stage.  The
        rows are the ones ``featurize`` would return for the full list,
        stacked in the same order.
        """
        if not values:
            return featurize(values)
        memo = self.values.setdefault(stage_name, {})
        fresh = [value for value in dict.fromkeys(values) if value not in memo]
        if fresh:
            self.calls[stage_name] += len(fresh)
            memo.update(zip(fresh, featurize(fresh)))
        return np.stack([memo[value] for value in values])


@dataclass(frozen=True)
class BlockSpec:
    """One pair-matrix block a pair-level stage emits.

    ``source`` names the property-level stage whose columns
    ``[source_start:source_stop]`` feed the block (``None`` for blocks
    computed directly from the pair, like name distances).
    """

    key: str
    source: str | None
    source_start: int
    source_stop: int
    column_names: tuple[str, ...]


class FeatureStage:
    """One node of the featurization DAG.

    Subclasses declare ``name``, ``level`` (``instance`` / ``property``
    / ``pair``), upstream ``deps`` and a ``width``; property-level
    stages additionally provide a content-addressed ``cache_key`` and a
    pure ``compute``, pair-level stages declare the matrix blocks they
    emit.  All stage output is stored as :data:`FEATURE_DTYPE`.
    """

    name: str = ""
    level: str = ""
    deps: tuple[str, ...] = ()
    dtype = FEATURE_DTYPE

    def width(self, dimension: int) -> int:
        """Output columns for embedding dimensionality ``dimension``."""
        raise NotImplementedError

    # Property-level interface -------------------------------------------
    def cache_key(self, dataset: Dataset, ref: PropertyRef) -> str:
        raise NotImplementedError

    def compute(self, context: StageContext, ref: PropertyRef) -> np.ndarray:
        raise NotImplementedError

    # Pair-level interface -----------------------------------------------
    def blocks(self, dimension: int) -> tuple[BlockSpec, ...]:
        raise NotImplementedError


#: Registered stages in registration (and matrix-block) order.
STAGES: dict[str, FeatureStage] = {}


def register_stage(stage: FeatureStage) -> FeatureStage:
    """Add a stage to the registry, validating name and dependencies."""
    if not stage.name or not stage.level:
        raise ConfigurationError("feature stages must declare name and level")
    if stage.name in STAGES:
        raise ConfigurationError(f"duplicate feature stage {stage.name!r}")
    for dep in stage.deps:
        if dep not in STAGES:
            raise ConfigurationError(
                f"stage {stage.name!r} depends on unregistered stage {dep!r}"
            )
    STAGES[stage.name] = stage
    return stage


def stages_at(level: str) -> list[FeatureStage]:
    """Registered stages of one level, in registration order."""
    return [stage for stage in STAGES.values() if stage.level == level]


def property_fingerprint(dataset: Dataset, ref: PropertyRef) -> str:
    """Content fingerprint of one property: source, name, value multiset.

    The key under which property-level feature rows are cached; two
    properties with identical source, name and values share a row, no
    matter which dataset object they arrive in.
    """
    hasher = hashlib.sha256()
    hasher.update(ref.source.encode("utf-8"))
    hasher.update(b"\x1f")
    hasher.update(ref.name.encode("utf-8"))
    for value in sorted(dataset.values_of(ref)):
        hasher.update(b"\x1e")
        hasher.update(value.encode("utf-8"))
    return hasher.hexdigest()[:24]


class InstanceMetaStage(FeatureStage):
    """Table I rows 1-3: 29 character/token/numeric meta-features."""

    name = "instance_meta"
    level = "instance"

    def width(self, dimension: int) -> int:
        return NUM_META_FEATURES

    def matrix(self, context: StageContext, values: list[str]) -> np.ndarray:
        return context.value_rows(self.name, values, instance_meta_matrix)


class InstanceEmbeddingStage(FeatureStage):
    """Table I row 4: average word embedding of each instance value."""

    name = "instance_embedding"
    level = "instance"

    def width(self, dimension: int) -> int:
        return dimension

    def matrix(self, context: StageContext, values: list[str]) -> np.ndarray:
        return context.value_rows(
            self.name,
            values,
            lambda fresh: instance_embedding_matrix(fresh, context.embeddings),
        )


class PropertyAggregateStage(FeatureStage):
    """Table I row 5: mean of instance meta + embedding rows, per property."""

    name = "property_aggregate"
    level = "property"
    deps = ("instance_meta", "instance_embedding")

    def width(self, dimension: int) -> int:
        return NUM_META_FEATURES + dimension

    def cache_key(self, dataset: Dataset, ref: PropertyRef) -> str:
        return property_fingerprint(dataset, ref)

    def compute(self, context: StageContext, ref: PropertyRef) -> np.ndarray:
        dimension = context.embeddings.dimension
        row = np.zeros(NUM_META_FEATURES + dimension)
        values = context.dataset.values_of(ref)
        if values:
            meta = STAGES["instance_meta"].matrix(context, values)
            row[:NUM_META_FEATURES] = meta.mean(axis=0)
            vectors = STAGES["instance_embedding"].matrix(context, values)
            # Sequential accumulation (not ndarray.sum) keeps the float64
            # rounding identical to the seed implementation's value loop.
            total = np.zeros(dimension)
            for vector in vectors:
                total += vector
            row[NUM_META_FEATURES:] = total / len(values)
        return row


class NameEmbeddingStage(FeatureStage):
    """Table I row 6: average word embedding of the property *name*."""

    name = "name_embedding"
    level = "property"

    def width(self, dimension: int) -> int:
        return dimension

    def cache_key(self, dataset: Dataset, ref: PropertyRef) -> str:
        return ref.name

    def compute(self, context: StageContext, ref: PropertyRef) -> np.ndarray:
        return context.embeddings.embed_text(ref.name)


class PairDiffStage(FeatureStage):
    """Table I row 7: absolute differences of property feature rows."""

    name = "pair_diff"
    level = "pair"
    deps = ("property_aggregate", "name_embedding")

    def width(self, dimension: int) -> int:
        return NUM_META_FEATURES + 2 * dimension

    def blocks(self, dimension: int) -> tuple[BlockSpec, ...]:
        return (
            BlockSpec(
                key="instance_meta",
                source="property_aggregate",
                source_start=0,
                source_stop=NUM_META_FEATURES,
                column_names=tuple(
                    f"inst_meta_diff_{i}" for i in range(NUM_META_FEATURES)
                ),
            ),
            BlockSpec(
                key="instance_embedding",
                source="property_aggregate",
                source_start=NUM_META_FEATURES,
                source_stop=NUM_META_FEATURES + dimension,
                column_names=tuple(
                    f"inst_emb_diff_{i}" for i in range(dimension)
                ),
            ),
            BlockSpec(
                key="name_embedding",
                source="name_embedding",
                source_start=0,
                source_stop=dimension,
                column_names=tuple(
                    f"name_emb_diff_{i}" for i in range(dimension)
                ),
            ),
        )


class NameDistanceStage(FeatureStage):
    """Table I rows 8-15: the eight name string distances."""

    name = "name_distance"
    level = "pair"

    def width(self, dimension: int) -> int:
        return NUM_NAME_DISTANCES

    def blocks(self, dimension: int) -> tuple[BlockSpec, ...]:
        return (
            BlockSpec(
                key="name_distances",
                source=None,
                source_start=0,
                source_stop=0,
                column_names=tuple(
                    f"name_dist_{name}" for name in PAIR_DISTANCE_NAMES
                ),
            ),
        )


# Registration order fixes the pair-matrix block order: pair_diff's
# three blocks (instance meta, instance embedding, name embedding), then
# the name distances -- the layout every FeatureConfig slices.
register_stage(InstanceMetaStage())
register_stage(InstanceEmbeddingStage())
register_stage(PropertyAggregateStage())
register_stage(NameEmbeddingStage())
register_stage(PairDiffStage())
register_stage(NameDistanceStage())


# ---------------------------------------------------------------------------
# Schema
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SchemaBlock:
    """One column block of the full pair-feature matrix."""

    key: str
    stage: str
    source: str | None
    source_start: int
    source_stop: int
    start: int
    stop: int
    column_names: tuple[str, ...]

    @property
    def width(self) -> int:
        return self.stop - self.start

    @property
    def columns(self) -> slice:
        """Column range within the full matrix."""
        return slice(self.start, self.stop)

    @property
    def source_columns(self) -> slice:
        """Column range within the source stage's column store."""
        return slice(self.source_start, self.source_stop)


def _block_active(key: str, config: FeatureConfig) -> bool:
    if key == "instance_meta":
        return config.scope.uses_instances and config.kinds.uses_non_embeddings
    if key == "instance_embedding":
        return config.scope.uses_instances and config.kinds.uses_embeddings
    if key == "name_embedding":
        return config.scope.uses_names and config.kinds.uses_embeddings
    if key == "name_distances":
        return config.scope.uses_names and config.kinds.uses_non_embeddings
    raise ConfigurationError(f"unknown feature block {key!r}")


class FeatureSchema:
    """Column-block geometry of the full pair-feature matrix.

    Derived from the stage registry, so column order and block widths
    have exactly one definition; ``feature_block_names``, the feature
    store, permutation importance and persisted bundles all read from
    here.  Every :class:`FeatureConfig` selects whole blocks, so a
    config's matrix is ``full_matrix[:, schema.active_columns(config)]``
    -- a zero-copy view whenever the active blocks are adjacent (all
    grid cells except ``both/non_embedding``, which skips the middle
    embedding blocks).
    """

    def __init__(self, dimension: int) -> None:
        self.dimension = dimension
        blocks: list[SchemaBlock] = []
        offset = 0
        for stage in stages_at("pair"):
            for spec in stage.blocks(dimension):
                stop = offset + len(spec.column_names)
                blocks.append(
                    SchemaBlock(
                        key=spec.key,
                        stage=stage.name,
                        source=spec.source,
                        source_start=spec.source_start,
                        source_stop=spec.source_stop,
                        start=offset,
                        stop=stop,
                        column_names=spec.column_names,
                    )
                )
                offset = stop
        self.blocks: tuple[SchemaBlock, ...] = tuple(blocks)
        self.total_width = offset
        self._by_key = {block.key: block for block in self.blocks}

    def block(self, key: str) -> SchemaBlock:
        try:
            return self._by_key[key]
        except KeyError:
            raise ConfigurationError(f"unknown feature block {key!r}") from None

    def active_blocks(self, config: FeatureConfig) -> tuple[SchemaBlock, ...]:
        """The blocks a config enables, in matrix order."""
        active = tuple(
            block for block in self.blocks if _block_active(block.key, config)
        )
        if not active:
            raise ConfigurationError(
                f"feature config {config.label()} selects no features"
            )
        return active

    def active_columns(self, config: FeatureConfig) -> slice | np.ndarray:
        """Columns of the full matrix a config selects.

        Returns a :class:`slice` (so indexing yields a zero-copy view)
        when the active blocks are adjacent, otherwise an index array.
        """
        active = self.active_blocks(config)
        contiguous = all(
            nxt.start == prev.stop for prev, nxt in zip(active, active[1:])
        )
        if contiguous:
            return slice(active[0].start, active[-1].stop)
        return np.concatenate(
            [np.arange(block.start, block.stop) for block in active]
        )

    def active_slices(self, config: FeatureConfig) -> dict[str, slice]:
        """Per-block column ranges *within the config's own matrix*."""
        return self.resolve(config).slices()

    def column_names(self, config: FeatureConfig) -> list[str]:
        """Human-readable names of the active columns, in order."""
        names: list[str] = []
        for block in self.active_blocks(config):
            names.extend(block.column_names)
        return names

    def width(self, config: FeatureConfig) -> int:
        return sum(block.width for block in self.active_blocks(config))

    def resolve(self, config: FeatureConfig) -> "ResolvedSchema":
        """Freeze the geometry one config sees into a portable snapshot."""
        blocks: list[tuple[str, int, int]] = []
        offset = 0
        for block in self.active_blocks(config):
            blocks.append((block.key, offset, offset + block.width))
            offset += block.width
        return ResolvedSchema(
            scope=config.scope.value,
            kinds=config.kinds.value,
            embedding_dimension=self.dimension,
            dimension=offset,
            blocks=tuple(blocks),
        )

    def describe(self, config: FeatureConfig) -> str:
        """Human-readable block map of one config's matrix."""
        resolved = self.resolve(config)
        lines = [f"{config.label()}: {resolved.dimension} columns"]
        for key, start, stop in resolved.blocks:
            block = self.block(key)
            via = block.source if block.source is not None else block.stage
            lines.append(f"  [{start:4d}:{stop:4d}] {key:<20} <- {via}")
        return "\n".join(lines)


@dataclass(frozen=True)
class ResolvedSchema:
    """The geometry one config's matrix actually has -- persistable.

    Saved inside matcher bundles (``config.json``) so a loaded matcher
    can verify that the pipeline it will score with produces the column
    layout the classifier was trained on.
    """

    scope: str
    kinds: str
    embedding_dimension: int
    dimension: int
    blocks: tuple[tuple[str, int, int], ...]

    @property
    def config(self) -> FeatureConfig:
        return FeatureConfig(
            scope=FeatureScope(self.scope), kinds=FeatureKinds(self.kinds)
        )

    def slices(self) -> dict[str, slice]:
        """Per-block column ranges within the config's matrix."""
        return {key: slice(start, stop) for key, start, stop in self.blocks}

    def to_dict(self) -> dict:
        return {
            "scope": self.scope,
            "kinds": self.kinds,
            "embedding_dimension": self.embedding_dimension,
            "dimension": self.dimension,
            "blocks": [[key, start, stop] for key, start, stop in self.blocks],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ResolvedSchema":
        try:
            return cls(
                scope=str(payload["scope"]),
                kinds=str(payload["kinds"]),
                embedding_dimension=int(payload["embedding_dimension"]),
                dimension=int(payload["dimension"]),
                blocks=tuple(
                    (str(key), int(start), int(stop))
                    for key, start, stop in payload["blocks"]
                ),
            )
        except (KeyError, TypeError, ValueError) as error:
            raise DataError(f"malformed feature schema: {error}") from None


def describe_stages(dimension: int) -> str:
    """Human-readable stage graph for embedding dimensionality ``dimension``."""
    lines = ["stage graph (name  level  width  <- deps):"]
    for stage in STAGES.values():
        deps = ", ".join(stage.deps) if stage.deps else "-"
        lines.append(
            f"  {stage.name:<20} {stage.level:<9} "
            f"{stage.width(dimension):>5}  <- {deps}"
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Pipeline
# ---------------------------------------------------------------------------


def split_pairs(
    pairs: list[LabeledPair] | list[tuple[PropertyRef, PropertyRef]],
) -> tuple[list[PropertyRef], list[PropertyRef]]:
    """Left and right refs of a pair list (labeled or plain tuples)."""
    lefts: list[PropertyRef] = []
    rights: list[PropertyRef] = []
    for pair in pairs:
        if isinstance(pair, LabeledPair):
            lefts.append(pair.left)
            rights.append(pair.right)
        else:
            left, right = pair
            lefts.append(left)
            rights.append(right)
    return lefts, rights


class FeaturePipeline:
    """Executes the stage DAG for one embedding space.

    Property-level rows are cached per content fingerprint (float32,
    read-only), independently of any pair enumeration -- featurizing a
    dataset that shares properties with an earlier one only computes the
    genuinely new rows, which is what makes
    :meth:`repro.core.feature_cache.PairFeatureStore.add_source` cheap.

    ``stage_calls`` counts computed units per stage: property rows
    computed, pair rows assembled, and -- for the instance stages --
    the *distinct* values featurized, since a value shared by several
    new properties of one :meth:`property_columns` call is featurized
    once (cameras: 3,578 distinct of 9,520 values).  ``stage_seconds``
    accumulates wall-clock per stage.  Both exist so incremental
    behaviour is assertable and benchmarkable rather than assumed.
    Each call counts into its own scratch and folds it in once, under a
    lock, so concurrent request threads never mix their splits.
    """

    def __init__(self, embeddings: WordEmbeddings) -> None:
        self.embeddings = embeddings
        self.schema = FeatureSchema(embeddings.dimension)
        self.stage_calls: Counter = Counter()
        self.stage_seconds: dict[str, float] = {}
        self._totals_lock = threading.Lock()
        self._rows: dict[str, dict[str, np.ndarray]] = {
            stage.name: {} for stage in stages_at("property")
        }

    def _fold(self, calls: dict[str, int], seconds: dict[str, float]) -> None:
        """Add one call's counts and timings to the running totals."""
        with self._totals_lock:
            for stage_name, count in calls.items():
                self.stage_calls[stage_name] += count
            for stage_name, spent in seconds.items():
                self.stage_seconds[stage_name] = (
                    self.stage_seconds.get(stage_name, 0.0) + spent
                )

    def property_columns(self, dataset: Dataset) -> dict[str, np.ndarray]:
        """Columnar float32 stage outputs for all properties of a dataset.

        Returns ``{stage_name: (n_properties, stage_width) float32}``
        with rows in ``dataset.properties()`` order; rows already cached
        (same property content seen before) are served, only new rows
        compute.
        """
        refs = dataset.properties()
        context = StageContext(dataset, self.embeddings)
        seconds: dict[str, float] = {}
        columns: dict[str, np.ndarray] = {}
        for stage in stages_at("property"):
            started = perf_counter()
            out = np.empty(
                (len(refs), stage.width(self.schema.dimension)),
                dtype=FEATURE_DTYPE,
            )
            cache = self._rows[stage.name]
            for i, ref in enumerate(refs):
                key = stage.cache_key(dataset, ref)
                row = cache.get(key)
                if row is None:
                    context.calls[stage.name] += 1
                    row = np.asarray(
                        stage.compute(context, ref), dtype=FEATURE_DTYPE
                    )
                    row.setflags(write=False)
                    cache[key] = row
                out[i] = row
            out.setflags(write=False)
            columns[stage.name] = out
            seconds[stage.name] = perf_counter() - started
        self._fold(context.calls, seconds)
        return columns

    def pair_matrix(
        self,
        table,
        left_rows: np.ndarray,
        right_rows: np.ndarray,
        config: FeatureConfig,
    ) -> np.ndarray:
        """Assemble a config's pair matrix from a table's stage columns.

        Pair ``k`` joins table rows ``left_rows[k]`` and
        ``right_rows[k]``.  ``table`` is any object exposing
        ``stage_columns(stage_name)``, ``names`` (its distinct lowercased
        property names, sorted) and ``name_ids`` (each row's index into
        ``names``) -- in practice a
        :class:`~repro.core.property_features.PropertyFeatureTable`.
        The result is float32 with ``schema.width(config)`` columns.
        """
        active = self.schema.active_blocks(config)
        n = len(left_rows)
        matrix = np.empty((n, self.schema.width(config)), dtype=FEATURE_DTYPE)
        if n == 0:
            return matrix
        calls: dict[str, int] = {}
        seconds: dict[str, float] = {}
        distance_counts: dict[str, int] = {}
        offset = 0
        for block in active:
            target = matrix[:, offset : offset + block.width]
            offset += block.width
            started = perf_counter()
            if block.source is not None:
                source = table.stage_columns(block.source)[:, block.source_columns]
                np.abs(source[left_rows] - source[right_rows], out=target)
                # Rows assembled, once per stage however many blocks.
                calls[block.stage] = n
            else:  # name distances
                name_id_distance_block(
                    table.names,
                    table.name_ids[left_rows],
                    table.name_ids[right_rows],
                    target,
                    counters=distance_counts,
                )
                # The name-distance stage splits its row count by memo
                # state so incremental work avoidance (warm add_source,
                # persistent cache) is assertable.
                for kind, count in distance_counts.items():
                    calls[f"{block.stage}.{kind}"] = count
            seconds[block.stage] = (
                seconds.get(block.stage, 0.0) + perf_counter() - started
            )
        self._fold(calls, seconds)
        return matrix
