"""Tests for the Table I feature extractors."""

import numpy as np
import pytest

from repro.core.config import FeatureConfig, FeatureKinds, FeatureScope
from repro.core.feature_cache import PairFeatureStore, PairUniverse
from repro.core.instance_features import (
    NUM_META_FEATURES,
    instance_meta_features,
    instance_meta_matrix,
)
from repro.core.pipeline import NUM_NAME_DISTANCES, FeatureSchema, name_distance_block
from repro.core.property_features import PropertyFeatureTable
from repro.data.model import Dataset, PropertyInstance, PropertyRef
from repro.data.pairs import LabeledPair
from repro.embeddings.hashing import hash_embeddings
from repro.errors import ConfigurationError

from tests.conftest import direct_pair_matrix, pair_request


class TestInstanceMetaFeatures:
    def test_count_matches_paper(self):
        # 18 char-type + 10 token-type + 1 numeric = 29; with a 300-d
        # embedding this yields the paper's 329 instance features.
        assert NUM_META_FEATURES == 29
        assert instance_meta_features("20.1 MP").shape == (29,)

    def test_numeric_value_is_last(self):
        assert instance_meta_features("42")[-1] == 42.0
        assert instance_meta_features("n/a")[-1] == -1.0

    def test_matrix_shape(self):
        matrix = instance_meta_matrix(["a", "bb", "ccc"])
        assert matrix.shape == (3, 29)

    def test_empty_matrix(self):
        assert instance_meta_matrix([]).shape == (0, 29)

    def test_distinct_formats_distinct_features(self):
        a = instance_meta_features("20.1 MP")
        b = instance_meta_features("wireless")
        assert not np.allclose(a, b)


@pytest.fixture()
def dataset():
    instances = [
        PropertyInstance("s1", "resolution", "e1", "20 mp"),
        PropertyInstance("s1", "resolution", "e2", "24 mp"),
        PropertyInstance("s2", "megapixels", "e3", "18 mp"),
        PropertyInstance("s2", "weight", "e3", "500 grams"),
    ]
    alignment = {
        PropertyRef("s1", "resolution"): "resolution",
        PropertyRef("s2", "megapixels"): "resolution",
        PropertyRef("s2", "weight"): "weight",
    }
    return Dataset("t", instances, alignment)


@pytest.fixture()
def embeddings():
    return hash_embeddings(
        ["resolution", "megapixels", "weight", "mp", "grams"], dimension=8
    )


@pytest.fixture()
def table(dataset, embeddings):
    return PropertyFeatureTable(dataset, embeddings)


class TestPropertyFeatureTable:
    def test_shapes(self, table):
        assert len(table) == 3
        assert table.meta.shape == (3, 29)
        assert table.value_embedding.shape == (3, 8)
        assert table.name_embedding.shape == (3, 8)

    def test_meta_is_instance_average(self, table, dataset):
        ref = PropertyRef("s1", "resolution")
        expected = instance_meta_matrix(dataset.values_of(ref)).mean(axis=0)
        assert np.allclose(table.meta[table.refs.index(ref)], expected)

    def test_name_embedding_matches_lookup(self, table, embeddings):
        ref = PropertyRef("s2", "megapixels")
        assert np.allclose(
            table.name_embedding[table.refs.index(ref)],
            embeddings.embed_text("megapixels"),
        )

    def test_unknown_ref_raises(self, table, dataset):
        store = PairFeatureStore(table, PairUniverse(dataset))
        unknown = (PropertyRef("nope", "nope"), PropertyRef("s1", "resolution"))
        with pytest.raises(ConfigurationError):
            store.features(pair_request(dataset, [unknown]), FeatureConfig())

    def test_rows_of(self, table, dataset):
        # Table rows follow dataset.properties(), the order pair-universe
        # property indices address.
        assert table.refs == dataset.properties()
        assert len(table) == 3


class TestPairFeatureMatrix:
    def _pairs(self):
        return [
            LabeledPair(
                PropertyRef("s1", "resolution"), PropertyRef("s2", "megapixels"), True
            ),
            LabeledPair(
                PropertyRef("s1", "resolution"), PropertyRef("s2", "weight"), False
            ),
        ]

    def test_full_config_width(self, table):
        config = FeatureConfig()
        matrix = direct_pair_matrix(table, self._pairs(), config)
        # 29 meta + 8 inst-emb + 8 name-emb + 8 distances
        assert matrix.shape == (2, 29 + 8 + 8 + 8)

    @pytest.mark.parametrize(
        ("scope", "kinds", "width"),
        [
            (FeatureScope.INSTANCES, FeatureKinds.NON_EMBEDDING, 29),
            (FeatureScope.INSTANCES, FeatureKinds.EMBEDDING, 8),
            (FeatureScope.INSTANCES, FeatureKinds.BOTH, 37),
            (FeatureScope.NAMES, FeatureKinds.EMBEDDING, 8),
            (FeatureScope.NAMES, FeatureKinds.NON_EMBEDDING, 8),
            (FeatureScope.NAMES, FeatureKinds.BOTH, 16),
            (FeatureScope.BOTH, FeatureKinds.EMBEDDING, 16),
            (FeatureScope.BOTH, FeatureKinds.NON_EMBEDDING, 37),
            (FeatureScope.BOTH, FeatureKinds.BOTH, 53),
        ],
    )
    def test_nine_config_widths(self, table, scope, kinds, width):
        config = FeatureConfig(scope, kinds)
        matrix = direct_pair_matrix(table, self._pairs(), config)
        assert matrix.shape == (2, width)
        assert len(FeatureSchema(8).column_names(config)) == width

    def test_paper_dimensions_at_300(self):
        # With 300-d embeddings the paper's counts are reproduced:
        # property vector = 329 + 300 = 629; pair vector = 629 + 8 = 637.
        config = FeatureConfig()
        names = FeatureSchema(300).column_names(config)
        assert len(names) == 29 + 300 + 300 + 8 == 637

    def test_symmetric_in_pair_order(self, table):
        config = FeatureConfig()
        forward = direct_pair_matrix(table, self._pairs(), config)
        flipped = [
            LabeledPair(pair.right, pair.left, pair.label) for pair in self._pairs()
        ]
        backward = direct_pair_matrix(table, flipped, config)
        assert np.allclose(forward, backward)

    def test_accepts_plain_tuples(self, table):
        config = FeatureConfig(FeatureScope.NAMES, FeatureKinds.NON_EMBEDDING)
        pairs = [(PropertyRef("s1", "resolution"), PropertyRef("s2", "weight"))]
        assert direct_pair_matrix(table, pairs, config).shape == (1, 8)

    def test_empty_pairs(self, table):
        matrix = direct_pair_matrix(table, [], FeatureConfig())
        assert matrix.shape == (0, 53)

    def test_matching_pair_smaller_distance_block(self, table):
        config = FeatureConfig(FeatureScope.NAMES, FeatureKinds.NON_EMBEDDING)
        same = direct_pair_matrix(
            table,
            [(PropertyRef("s1", "resolution"), PropertyRef("s2", "megapixels"))],
            config,
        )
        identical = name_distance_block([("resolution", "resolution")])[0]
        assert np.allclose(identical, 0.0)
        assert (same > 0).any()


class TestConfig:
    def test_grid_has_nine(self):
        assert len(FeatureConfig.grid()) == 9

    def test_labels_unique(self):
        labels = {config.label() for config in FeatureConfig.grid()}
        assert len(labels) == 9

    def test_scope_flags(self):
        assert FeatureScope.BOTH.uses_instances and FeatureScope.BOTH.uses_names
        assert not FeatureScope.NAMES.uses_instances
        assert not FeatureScope.INSTANCES.uses_names

    def test_name_distance_count(self):
        assert NUM_NAME_DISTANCES == 8
