"""The pipeline's one non-negotiable: numerically the seed implementation.

The staged pipeline (PR 5) replaced the monolithic float64 featurizer
with columnar float32 stage stores.  These tests pin the compatibility
contract:

* for every one of the nine ``FeatureConfig`` grid cells, the pipeline
  matrix equals an inline re-implementation of the seed-era float64
  path, within float32 cast resolution;
* ``schema.resolve(config).dimension`` is the matrix width;
* the :meth:`PairFeatureStore.add_source` delta path is *bit-identical*
  to rebuilding the merged dataset from scratch, while provably
  computing only the new property rows and new cross-source pairs
  (asserted via the pipeline's stage-call counters).
"""

import numpy as np
import pytest

from repro.core import (
    FeatureConfig,
    PairFeatureStore,
    PairUniverse,
    PropertyFeatureTable,
)
from repro.core.instance_features import NUM_META_FEATURES, instance_meta_matrix
from repro.core.pipeline import FeaturePipeline, FeatureSchema, name_distance_block
from repro.datasets import build_domain_embeddings, load_dataset
from repro.text.similarity import name_distance_vector

from tests.conftest import direct_pair_matrix, full_matrix

#: Tolerance of the float32 policy: per-row math is float64 (identical
#: to the seed), cast once on entry to the column store, so pipeline and
#: legacy matrices agree to float32 resolution.
RTOL = 1e-5
ATOL = 1e-6

DOMAINS = ("headphones", "cameras")


def reference_property_features(dataset, embeddings):
    """The seed-era float64 property featurizer, inlined as the oracle."""
    refs = dataset.properties()
    dimension = embeddings.dimension
    meta = np.zeros((len(refs), NUM_META_FEATURES))
    value_emb = np.zeros((len(refs), dimension))
    name_emb = np.zeros((len(refs), dimension))
    for i, ref in enumerate(refs):
        values = dataset.values_of(ref)
        if values:
            meta[i] = instance_meta_matrix(values).mean(axis=0)
            total = np.zeros(dimension)
            for value in values:
                total += embeddings.embed_text(value)
            value_emb[i] = total / len(values)
        name_emb[i] = embeddings.embed_text(ref.name)
    return refs, meta, value_emb, name_emb


def reference_pair_matrix(schema, config, tables, pairs):
    """Seed-era pair assembly: per-block abs diffs + name distances."""
    refs, meta, value_emb, name_emb = tables
    row_of = {ref: i for i, ref in enumerate(refs)}
    left = np.array([row_of[pair.left] for pair in pairs])
    right = np.array([row_of[pair.right] for pair in pairs])
    blocks = []
    for block in schema.active_blocks(config):
        if block.key == "instance_meta":
            blocks.append(np.abs(meta[left] - meta[right]))
        elif block.key == "instance_embedding":
            blocks.append(np.abs(value_emb[left] - value_emb[right]))
        elif block.key == "name_embedding":
            blocks.append(np.abs(name_emb[left] - name_emb[right]))
        else:
            blocks.append(
                np.array(
                    [
                        name_distance_vector(pair.left.name, pair.right.name)
                        for pair in pairs
                    ]
                )
            )
    return np.hstack(blocks)


@pytest.fixture(scope="module", params=DOMAINS)
def domain_fixture(request):
    dataset = load_dataset(request.param, scale="tiny", seed=0)
    embeddings = build_domain_embeddings(request.param, scale="tiny")
    table = PropertyFeatureTable(dataset, embeddings)
    universe = PairUniverse(dataset)
    store = PairFeatureStore(table, universe)
    reference = reference_property_features(dataset, embeddings)
    return dataset, embeddings, table, universe, store, reference


@pytest.mark.parametrize(
    "config", FeatureConfig.grid(), ids=lambda config: config.label()
)
class TestNineConfigEquivalence:
    def test_pipeline_matches_seed_reference(self, domain_fixture, config):
        _, embeddings, table, universe, _, reference = domain_fixture
        pairs = list(universe.pairs)[:60]
        schema = FeatureSchema(embeddings.dimension)
        got = direct_pair_matrix(table, pairs, config)
        want = reference_pair_matrix(schema, config, reference, pairs)
        np.testing.assert_allclose(got, want, rtol=RTOL, atol=ATOL)

    def test_schema_dimension_is_matrix_width(self, domain_fixture, config):
        _, embeddings, table, universe, _, _ = domain_fixture
        pairs = list(universe.pairs)[:10]
        matrix = direct_pair_matrix(table, pairs, config)
        resolved = FeatureSchema(embeddings.dimension).resolve(config)
        assert resolved.dimension == matrix.shape[1]

    def test_store_gather_equals_direct_assembly(self, domain_fixture, config):
        _, _, table, universe, store, _ = domain_fixture
        pairs = universe.subset().select(np.arange(60))
        served = store.features(pairs, config)
        direct = direct_pair_matrix(table, pairs, config)
        np.testing.assert_array_equal(served, direct)

    def test_matrices_are_float32(self, domain_fixture, config):
        _, _, table, universe, store, _ = domain_fixture
        pairs = universe.subset().select(np.arange(10))
        assert direct_pair_matrix(table, pairs, config).dtype == np.float32
        assert store.features(pairs, config).dtype == np.float32


class TestAddSourceDelta:
    @pytest.fixture(scope="class")
    def delta(self):
        dataset = load_dataset("headphones", scale="tiny", seed=0)
        embeddings = build_domain_embeddings("headphones", scale="tiny")
        sources = sorted(dataset.sources())
        base = dataset.restrict_to_sources(sources[:-1])
        addition = dataset.restrict_to_sources(sources[-1:])
        pipeline = FeaturePipeline(embeddings)
        table = PropertyFeatureTable(base, embeddings, pipeline=pipeline)
        store = PairFeatureStore(table, PairUniverse(base))
        before = dict(pipeline.stage_calls)
        store, new_pairs = store.with_source(addition)
        calls = {
            stage: count - before.get(stage, 0)
            for stage, count in pipeline.stage_calls.items()
        }
        rebuilt = PairFeatureStore.build(base.merged_with(addition), embeddings)
        return base, addition, store, new_pairs, calls, rebuilt

    def test_gathers_equal_from_scratch_rebuild(self, delta):
        _, _, store, _, _, rebuilt = delta
        # Bit-identical, not merely close: merging keeps base instances
        # first, so every per-property float64 summation order -- and
        # hence every cast float32 row -- is preserved.
        assert np.array_equal(full_matrix(store), full_matrix(rebuilt))

    def test_pair_enumeration_matches_rebuild(self, delta):
        _, _, store, _, _, rebuilt = delta
        assert [p.key for p in store.universe.pairs] == [
            p.key for p in rebuilt.universe.pairs
        ]
        assert [p.label for p in store.universe.pairs] == [
            p.label for p in rebuilt.universe.pairs
        ]

    def test_only_new_property_rows_computed(self, delta):
        _, addition, _, _, calls, _ = delta
        assert calls["property_aggregate"] == len(addition.properties())

    def test_only_new_pairs_assembled(self, delta):
        base, _, store, new_pairs, calls, _ = delta
        # The kernel saw exactly the name pairs the old store lacked:
        # every other name row carried over from the old store.
        def name_pairs(pairs):
            return {tuple(sorted((p.left.name.lower(), p.right.name.lower()))) for p in pairs}

        absent = name_pairs(store.universe.pairs) - name_pairs(PairUniverse(base).pairs)
        assert absent and absent <= name_pairs(new_pairs.pairs)
        distance_rows = calls.get("name_distance.computed", 0) + calls.get(
            "name_distance.cache_hit", 0
        )
        assert distance_rows == len(absent)
        # Work avoidance is directly assertable: every pair the delta
        # just touched is memoized, so re-requesting the same block
        # computes nothing.
        repeat: dict[str, int] = {}
        name_distance_block(
            [(p.left.name, p.right.name) for p in new_pairs.pairs],
            counters=repeat,
        )
        assert repeat["computed"] == 0
        assert repeat["cache_hit"] == len(new_pairs.pairs)
        # Every new pair crosses into the added source; none are
        # base-internal re-dos.
        base_sources = set(base.sources())
        assert all(
            pair.left.source not in base_sources
            or pair.right.source not in base_sources
            for pair in new_pairs.pairs
        )

    def test_served_config_views_match_rebuild(self, delta):
        _, _, store, _, _, rebuilt = delta
        pairs = store.universe.subset().select(np.arange(40))
        for config in FeatureConfig.grid():
            np.testing.assert_array_equal(
                store.features(pairs, config), rebuilt.features(pairs, config)
            )
