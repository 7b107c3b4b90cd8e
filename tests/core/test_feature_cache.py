"""The shared feature store must be invisible except for speed.

Every matrix the store serves must equal what the direct
``pair_feature_matrix`` path produces, for every config of the 3x3
grid; the pair universe must reproduce ``build_pairs`` for every
``(sources, within)`` request, with the rows of the subset known
without a per-pair lookup.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blocking import CandidatePolicy
from repro.core import (
    FeatureConfig,
    LeapmeMatcher,
    PairFeatureStore,
    PairUniverse,
    PropertyFeatureTable,
    pair_feature_matrix,
)
from repro.core.config import FeatureKinds
from repro.core.pipeline import FeatureSchema
from repro.data.pairs import build_pairs, sample_training_pairs
from repro.errors import ConfigurationError


@pytest.fixture(scope="module")
def store_fixture(tiny_headphones, tiny_embeddings):
    table = PropertyFeatureTable(tiny_headphones, tiny_embeddings)
    universe = PairUniverse(tiny_headphones)
    return table, universe, PairFeatureStore(table, universe)


class TestPairUniverse:
    def test_universe_is_all_cross_source_pairs(self, tiny_headphones):
        universe = PairUniverse(tiny_headphones)
        reference = build_pairs(tiny_headphones)
        assert list(universe.pairs) == reference.pairs

    @pytest.mark.parametrize("within", [True, False])
    def test_subset_matches_build_pairs(self, tiny_headphones, within):
        universe = PairUniverse(tiny_headphones)
        sources = tiny_headphones.sources()
        for cut in range(1, len(sources)):
            selected = sources[:cut]
            expected = build_pairs(tiny_headphones, selected, within=within)
            actual = universe.subset(selected, within=within)
            assert actual.pairs == expected.pairs

    @given(data=st.data(), within=st.booleans())
    @settings(max_examples=25, deadline=None)
    def test_subset_is_build_pairs_with_known_rows(
        self, tiny_headphones, data, within
    ):
        sources = tiny_headphones.sources()
        selected = data.draw(
            st.lists(st.sampled_from(sources), unique=True, max_size=len(sources))
        )
        universe = PairUniverse(tiny_headphones)
        subset = universe.subset(selected, within=within)
        assert subset.pairs == build_pairs(
            tiny_headphones, selected, within=within
        ).pairs
        expected = universe.lookup_rows(subset.pairs)
        calls = []
        lookup = PairUniverse.lookup_rows
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(
                PairUniverse,
                "lookup_rows",
                lambda self, pairs: calls.append(1) or lookup(self, pairs),
            )
            rows = universe.rows_of(subset.pairs)
        assert calls == []
        np.testing.assert_array_equal(rows, expected)

    def test_subset_rejects_unknown_sources(self, tiny_headphones):
        universe = PairUniverse(tiny_headphones)
        with pytest.raises(ConfigurationError):
            universe.subset(["no-such-source"])

    def test_row_lookup_is_orientation_independent(self, tiny_headphones):
        universe = PairUniverse(tiny_headphones)
        pair = universe.pairs[3]
        assert universe.row_of((pair.left, pair.right)) == 3
        assert universe.row_of((pair.right, pair.left)) == 3

    def test_foreign_pair_is_rejected(self, tiny_headphones, tiny_cameras):
        universe = PairUniverse(tiny_headphones)
        foreign = PairUniverse(tiny_cameras).pairs[0]
        with pytest.raises(ConfigurationError):
            universe.row_of(foreign)

    def test_lookup_rows_marks_pairs_without_a_row(
        self, tiny_headphones, tiny_cameras
    ):
        universe = PairUniverse(tiny_headphones)
        pair = universe.pairs[5]
        source = tiny_headphones.sources()[0]
        same_source = tuple(tiny_headphones.properties(source)[:2])
        foreign = PairUniverse(tiny_cameras).pairs[0]
        rows = universe.lookup_rows(
            [pair, (pair.right, pair.left), same_source, foreign,
             (pair.left, pair.left)]
        )
        assert rows.tolist() == [5, 5, -1, -1, -1]
        assert universe.lookup_rows([]).tolist() == []

    def test_rows_from_maps_every_kept_pair(self, tiny_headphones):
        sources = sorted(tiny_headphones.sources())
        base = PairUniverse(tiny_headphones.restrict_to_sources(sources[:-1]))
        grown = PairUniverse(tiny_headphones)
        old_rows = grown.rows_from(base)
        base_keys = {pair.key for pair in base.pairs}
        for row, pair in enumerate(grown.pairs):
            if pair.key in base_keys:
                assert old_rows[row] == base.row_of(pair)
            else:
                assert sources[-1] in (pair.left.source, pair.right.source)
                assert old_rows[row] == -1


class TestPairFeatureStore:
    @pytest.mark.parametrize("config", FeatureConfig.grid(), ids=lambda c: c.label())
    def test_store_matches_direct_path_for_every_config(
        self, store_fixture, config
    ):
        table, universe, store = store_fixture
        pairs = universe.subset()
        direct = pair_feature_matrix(table, pairs.pairs, config)
        served = store.features(pairs, config)
        np.testing.assert_array_equal(served, direct)

    def test_training_sample_is_served_identically(self, store_fixture):
        table, universe, store = store_fixture
        candidates = universe.subset()
        training = sample_training_pairs(
            candidates, rng=np.random.default_rng(5)
        )
        config = FeatureConfig()
        direct = pair_feature_matrix(table, training.pairs, config)
        np.testing.assert_array_equal(store.features(training, config), direct)

    @pytest.mark.parametrize("policy", ["null", "minhash"])
    def test_features_are_the_config_columns_of_the_pair_rows(
        self, tiny_headphones, tiny_embeddings, policy
    ):
        universe = PairUniverse(
            tiny_headphones, CandidatePolicy.from_label(policy)
        )
        store = PairFeatureStore(
            PropertyFeatureTable(tiny_headphones, tiny_embeddings), universe
        )
        sources = tiny_headphones.sources()
        pairs = universe.subset(sources[: len(sources) // 2], within=False)
        rows = universe.rows_of(pairs.pairs)
        for config in FeatureConfig.grid():
            np.testing.assert_array_equal(
                store.features(pairs, config),
                store.matrix[rows][:, store.schema.active_columns(config)],
            )

    def test_only_split_scope_non_embedding_needs_a_copy(self, store_fixture):
        _, _, store = store_fixture
        copying = [
            config.label()
            for config in FeatureConfig.grid()
            if not isinstance(store.schema.active_columns(config), slice)
        ]
        assert copying == ["both/non_embedding"]

    def test_served_matrices_are_read_only(self, store_fixture):
        _, universe, store = store_fixture
        served = store.features(universe.subset(), FeatureConfig())
        with pytest.raises(ValueError):
            served[0, 0] = 1.0

    def test_store_refuses_mismatched_table_and_universe(
        self, tiny_headphones, tiny_cameras, tiny_embeddings
    ):
        table = PropertyFeatureTable(tiny_cameras, tiny_embeddings)
        universe = PairUniverse(tiny_headphones)
        with pytest.raises(ConfigurationError):
            PairFeatureStore(table, universe)

    def test_empty_pair_list(self, store_fixture):
        _, _, store = store_fixture
        config = FeatureConfig(kinds=FeatureKinds.NON_EMBEDDING)
        empty = store.features([], config)
        assert empty.shape == (0, store.schema.width(config))


class TestMatcherIntegration:
    def test_matcher_scores_identically_with_and_without_store(
        self, tiny_headphones, tiny_embeddings
    ):
        from repro.core import LeapmeConfig
        from repro.nn.schedule import TrainingSchedule

        config = LeapmeConfig(
            hidden_sizes=(8,), schedule=TrainingSchedule.constant(2, 1e-3)
        )
        candidates = build_pairs(tiny_headphones)
        training = sample_training_pairs(
            candidates, rng=np.random.default_rng(0)
        )

        plain = LeapmeMatcher(tiny_embeddings, config=config)
        plain.fit(tiny_headphones, training)
        baseline = plain.score_pairs(tiny_headphones, candidates.pairs)

        shared = LeapmeMatcher(tiny_embeddings, config=config)
        shared.attach_store(shared.build_feature_store(tiny_headphones))
        shared.fit(tiny_headphones, training)
        served = shared.score_pairs(tiny_headphones, candidates.pairs)
        np.testing.assert_array_equal(served, baseline)

    def test_store_for_other_dataset_falls_back(
        self, tiny_headphones, tiny_cameras, tiny_embeddings
    ):
        matcher = LeapmeMatcher(tiny_embeddings)
        matcher.attach_store(matcher.build_feature_store(tiny_cameras))
        pairs = build_pairs(tiny_headphones)
        training = sample_training_pairs(pairs, rng=np.random.default_rng(1))
        matcher.fit(tiny_headphones, training)  # must not raise
        scores = matcher.score_pairs(tiny_headphones, pairs.pairs)
        assert scores.shape == (len(pairs),)

    def test_schema_total_width_covers_all_blocks(self, store_fixture):
        table, _, store = store_fixture
        schema = FeatureSchema(table.embedding_dimension)
        assert store.matrix.shape[1] == schema.total_width
        assert schema.total_width == 29 + 2 * table.embedding_dimension + 8
