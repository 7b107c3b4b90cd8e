"""Feature pipeline: single source of truth for Table I featurization.

LEAPME's feature vector is a fixed list, built in three levels:

* **instance** rows (Table I rows 1-4) featurize one property-instance
  value: 29 meta-features and the average word embedding.  They are
  computed once per distinct value inside a property stage and counted
  as the ``instance_meta`` and ``instance_embedding`` stages;
* the two **property** stages (:data:`PROPERTY_STAGES`) reduce a
  property to one row each -- the mean of its instance rows (row 5) and
  its name embedding (row 6) -- cached per *content fingerprint* so the
  same property is never featurized twice, across grid cells,
  matchers, or incrementally ingested sources;
* **pair** rows (rows 7-15) are absolute differences of property rows
  plus the eight name distances.  No pair matrix is stored;
  :meth:`FeatureSchema.pair_rows` computes any pair's row from its two
  property rows and its name row.

:class:`FeatureSchema` holds the pair-matrix column geometry as one
table of blocks; a :class:`ResolvedSchema` is one config's snapshot of
it.

Stage outputs are stored as columnar ``float32`` arrays
(:data:`FEATURE_DTYPE`).  The float32 policy: per-row math runs in
float64 (identical to the seed implementation), and the result is cast
to float32 exactly once, when the row enters a column store.  Pair
rows therefore agree with the legacy float64 path within
float32 resolution, at half the memory.

Stage implementations must stay pure -- no ``repro.evaluation``
imports, no file writes (lint rule REP009) -- so prebuilt columns can be
shipped to worker processes via fork COW without side effects.
"""

from __future__ import annotations

import hashlib
import threading
from collections import Counter
from collections.abc import Callable
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
from repro.embeddings.base import WordEmbeddings
from repro.errors import ConfigurationError
from repro.text.batch import name_distance_rows, unique_lowered_pairs
from repro.text.similarity import PAIR_DISTANCE_NAMES

#: Storage dtype of all stage outputs and pair rows.
FEATURE_DTYPE = np.float32

#: Number of name string-distance features (Table I rows 8-15).
NUM_NAME_DISTANCES = len(PAIR_DISTANCE_NAMES)


# ---------------------------------------------------------------------------
# Memoised name distances (one cache shared by every layer: stores,
# pruned pairs, the Nezhadi baseline, benchmarks).
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


def name_distance_block(
    name_pairs: list[tuple[str, str]], *, counters: dict | None = None
) -> np.ndarray:
    """Float64 distance vectors for many name pairs, ``(n_pairs, 8)``.

    Cache-aware: each distinct canonical pair is probed once, pairs
    already memoised are served from the cache and only the missing
    ones go through the batched kernel.  ``counters``,
    when given, has ``"cache_hit"`` incremented by the number of rows
    served from the memo and ``"computed"`` by the rows that needed the
    kernel -- the split the pipeline surfaces as ``stage_calls`` so
    incremental work avoidance is assertable.
    """
    block = np.empty((len(name_pairs), NUM_NAME_DISTANCES))
    keys, inverse = unique_lowered_pairs(name_pairs)
    _scatter_distances(keys, inverse, block, counters)
    return block


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


class FeatureStage:
    """A property-level column producer (Table I rows 5-6).

    Subclasses declare a ``name`` and a ``width``, a content-addressed
    ``cache_key`` and a pure ``compute`` of one property's row, which
    :meth:`FeaturePipeline.property_columns` stores as
    :data:`FEATURE_DTYPE`.
    """

    name: str = ""

    def width(self, dimension: int) -> int:
        """Output columns for embedding dimensionality ``dimension``."""
        raise NotImplementedError

    def cache_key(self, dataset: Dataset, ref: PropertyRef) -> str:
        raise NotImplementedError

    def compute(self, context: StageContext, ref: PropertyRef) -> np.ndarray:
        raise NotImplementedError


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


class PropertyAggregateStage(FeatureStage):
    """Table I row 5: mean of instance meta + embedding rows, per property.

    The instance rows (rows 1-4) are featurized per distinct value and
    counted as the ``instance_meta`` and ``instance_embedding`` stages.
    """

    name = "property_aggregate"

    def width(self, dimension: int) -> int:
        return NUM_META_FEATURES + dimension

    def cache_key(self, dataset: Dataset, ref: PropertyRef) -> str:
        return property_fingerprint(dataset, ref)

    def compute(self, context: StageContext, ref: PropertyRef) -> np.ndarray:
        dimension = context.embeddings.dimension
        row = np.zeros(NUM_META_FEATURES + dimension)
        values = context.dataset.values_of(ref)
        if values:
            meta = context.value_rows("instance_meta", values, instance_meta_matrix)
            row[:NUM_META_FEATURES] = meta.mean(axis=0)
            vectors = context.value_rows(
                "instance_embedding",
                values,
                lambda fresh: instance_embedding_matrix(fresh, context.embeddings),
            )
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

    def width(self, dimension: int) -> int:
        return dimension

    def cache_key(self, dataset: Dataset, ref: PropertyRef) -> str:
        return ref.name

    def compute(self, context: StageContext, ref: PropertyRef) -> np.ndarray:
        return context.embeddings.embed_text(ref.name)


#: The property-level stages, in the order they compute.
PROPERTY_STAGES: tuple[FeatureStage, ...] = (
    PropertyAggregateStage(),
    NameEmbeddingStage(),
)


# ---------------------------------------------------------------------------
# Schema
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SchemaBlock:
    """One column block of the full pair-feature matrix.

    ``source`` names the property stage whose columns
    ``[source_start:source_stop]`` feed the block (``None`` for the name
    distances, computed from the pair); ``used_by(config)`` says whether
    a :class:`FeatureConfig` selects the block.
    """

    key: str
    source: str | None
    source_start: int
    source_stop: int
    start: int
    stop: int
    column_names: tuple[str, ...]
    used_by: Callable[[FeatureConfig], bool]

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


class FeatureSchema:
    """Column-block geometry of the full pair-feature matrix.

    Built from one table of Table I rows 7-15, so block order, source
    columns, column names and the configs using each block have exactly
    one definition; :meth:`column_names`, the feature store and
    permutation importance all read from here.  Every
    :class:`FeatureConfig` selects whole blocks, so a config's matrix
    is ``full_matrix[:, schema.active_columns(config)]`` -- a zero-copy
    view whenever the active blocks are adjacent (all
    grid cells except ``both/non_embedding``, which skips the middle
    embedding blocks).
    """

    def __init__(self, dimension: int) -> None:
        if dimension < 1:
            raise ConfigurationError(
                f"embedding dimension must be >= 1, got {dimension}"
            )
        self.dimension = dimension
        meta = NUM_META_FEATURES
        # Table I rows 7-15 in column order: block key, source stage and
        # its columns, column names, the configs using the block.
        table = (
            ("instance_meta", "property_aggregate", 0, meta,
             [f"inst_meta_diff_{i}" for i in range(meta)],
             lambda c: c.scope.uses_instances and c.kinds.uses_non_embeddings),
            ("instance_embedding", "property_aggregate", meta, meta + dimension,
             [f"inst_emb_diff_{i}" for i in range(dimension)],
             lambda c: c.scope.uses_instances and c.kinds.uses_embeddings),
            ("name_embedding", "name_embedding", 0, dimension,
             [f"name_emb_diff_{i}" for i in range(dimension)],
             lambda c: c.scope.uses_names and c.kinds.uses_embeddings),
            ("name_distances", None, 0, 0,
             [f"name_dist_{name}" for name in PAIR_DISTANCE_NAMES],
             lambda c: c.scope.uses_names and c.kinds.uses_non_embeddings),
        )
        blocks: list[SchemaBlock] = []
        offset = 0
        for key, source, source_start, source_stop, names, used_by in table:
            stop = offset + len(names)
            blocks.append(SchemaBlock(key, source, source_start, source_stop,
                                      offset, stop, tuple(names), used_by))
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
        active = tuple(block for block in self.blocks if block.used_by(config))
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

    def column_names(self, config: FeatureConfig) -> list[str]:
        """Human-readable names of the active columns, in order."""
        names: list[str] = []
        for block in self.active_blocks(config):
            names.extend(block.column_names)
        return names

    def width(self, config: FeatureConfig) -> int:
        return sum(block.width for block in self.active_blocks(config))

    def property_rows(self, table) -> np.ndarray:
        """A table's property rows in full-matrix columns, float32.

        Each difference block holds its source stage's columns; the
        name-distance columns (pair level) are zero.
        """
        rows = np.zeros((len(table), self.total_width), dtype=FEATURE_DTYPE)
        for block in self.blocks:
            if block.source is not None:
                source = table.stage_columns(block.source)
                rows[:, block.columns] = source[:, block.source_columns]
        return rows

    def pair_rows(
        self, property_rows: np.ndarray, left, right, name_rows: np.ndarray, columns
    ) -> np.ndarray:
        """Full-matrix ``columns`` (slice or index array) of the pairs.

        The one pair-row kernel: a difference column is
        ``|property_rows[left] - property_rows[right]|`` in float32, a
        name-distance column comes from ``name_rows`` (``(n, 8)``).
        Every route computes here, so a pair's row is the same bits
        whichever route asked.  The right rows are the one scratch block.
        """
        source = property_rows[:, columns]
        block = source[left]
        block -= source[right]
        np.abs(block, out=block)
        distances = self.block("name_distances")
        selected = np.arange(self.total_width)[columns]
        at = np.flatnonzero((selected >= distances.start) & (selected < distances.stop))
        block[:, at] = name_rows[:, selected[at] - distances.start]
        return block

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
            via = block.source or "name_distance"
            lines.append(f"  [{start:4d}:{stop:4d}] {key:<20} <- {via}")
        return "\n".join(lines)


@dataclass(frozen=True)
class ResolvedSchema:
    """The geometry one config's matrix actually has."""

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


def describe_stages(dimension: int) -> str:
    """Table I's producers and their widths at embedding ``dimension``."""
    meta = NUM_META_FEATURES
    stages = (
        ("instance_meta", "instance", meta, "-"),
        ("instance_embedding", "instance", dimension, "-"),
        ("property_aggregate", "property", meta + dimension,
         "instance_meta, instance_embedding"),
        ("name_embedding", "property", dimension, "-"),
        ("pair_diff", "pair", meta + 2 * dimension,
         "property_aggregate, name_embedding"),
        ("name_distance", "pair", NUM_NAME_DISTANCES, "-"),
    )
    lines = ["stage graph (name  level  width  <- deps):"]
    for name, level, width, deps in stages:
        lines.append(f"  {name:<20} {level:<9} {width:>5}  <- {deps}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Pipeline
# ---------------------------------------------------------------------------


class FeaturePipeline:
    """Runs the property stages for one embedding space.

    Property-level rows are cached per content fingerprint (float32,
    read-only), independently of any pair enumeration -- featurizing a
    dataset that shares properties with an earlier one only computes the
    genuinely new rows, which is what makes
    :meth:`repro.core.feature_cache.PairFeatureStore.with_source` cheap.

    ``stage_calls`` counts computed units per stage: property rows
    computed, name-pair rows sent to the distance kernel, and -- for
    the instance stages -- the *distinct* values featurized, since a
    value shared by several new properties of one
    :meth:`property_columns` call is featurized once (cameras: 3,578
    distinct of 9,520 values).  ``stage_seconds``
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
            stage.name: {} for stage in PROPERTY_STAGES
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
        for stage in PROPERTY_STAGES:
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

    def name_pair_rows(
        self, table, left_rows: np.ndarray, right_rows: np.ndarray
    ) -> np.ndarray:
        """Float32 name-distance rows of pairs of a table's rows, ``(n, 8)``.

        Memo-backed: the distinct name pairs are probed and computed in
        first-occurrence order (a per-pair walk's order) and scattered
        back.  Counted and timed as the ``name_distance`` stage, split
        into ``computed`` / ``cache_hit`` rows by memo state.
        """
        rows = np.empty((len(left_rows), NUM_NAME_DISTANCES), dtype=FEATURE_DTYPE)
        if len(rows) == 0:
            return rows
        started = perf_counter()
        codes = table.name_codes(left_rows, right_rows)
        distinct, first, inverse = np.unique(codes, return_index=True, return_inverse=True)
        order = np.argsort(first)
        width, names = len(table.names), table.names
        keys = [(names[code // width], names[code % width]) for code in distinct[order].tolist()]
        counts: dict[str, int] = {}
        _scatter_distances(keys, np.argsort(order)[inverse.reshape(-1)], rows, counts)
        self._fold(
            {f"name_distance.{kind}": count for kind, count in counts.items()},
            {"name_distance": perf_counter() - started},
        )
        return rows
