"""Equivalence contracts of policy-driven candidate generation.

Two invariants carry the whole refactor:

* the **null** policy is not "approximately" the seed behaviour -- a
  :class:`PairUniverse` built with it must reproduce
  :func:`repro.data.pairs.build_pairs` element for element, and a store
  over it must serve byte-identical feature matrices for every one of
  the nine grid configs;
* a **blocked** universe is a strict subset of the full cross product,
  deterministic under a fixed policy, and its incremental
  ``add_source`` path is bit-identical to a cold rebuild of the merged
  dataset under the same policy.
"""

import numpy as np
import pytest

from repro.blocking import CandidatePolicy
from repro.core import (
    FeatureConfig,
    PairFeatureStore,
    PairUniverse,
    pair_feature_matrix,
)
from repro.data.pairs import build_pairs

MINHASH = CandidatePolicy.from_label("minhash")


@pytest.fixture(scope="module")
def null_universe(tiny_headphones):
    return PairUniverse(tiny_headphones, CandidatePolicy.null())


@pytest.fixture(scope="module")
def blocked_universe(tiny_headphones):
    return PairUniverse(tiny_headphones, MINHASH)


class TestNullPolicyIsSeed:
    def test_pairs_equal_build_pairs(self, tiny_headphones, null_universe):
        seed = build_pairs(tiny_headphones)
        assert [p.key for p in null_universe.pairs] == [p.key for p in seed.pairs]
        assert [p.label for p in null_universe.pairs] == [
            p.label for p in seed.pairs
        ]

    def test_default_policy_is_null(self, tiny_headphones):
        universe = PairUniverse(tiny_headphones)
        assert universe.policy.is_null
        assert not universe.is_blocked

    @pytest.mark.parametrize("within", [True, False])
    def test_subsets_equal_build_pairs(self, tiny_headphones, null_universe, within):
        sources = sorted(tiny_headphones.sources())[:2]
        got = null_universe.subset(sources, within=within)
        want = build_pairs(tiny_headphones, sources, within=within)
        assert [p.key for p in got.pairs] == [p.key for p in want.pairs]

    @pytest.mark.parametrize(
        "config", FeatureConfig.grid(), ids=lambda config: config.label()
    )
    def test_store_features_byte_identical_per_config(
        self, tiny_headphones, tiny_embeddings, config
    ):
        store = PairFeatureStore.build(
            tiny_headphones, tiny_embeddings, policy=CandidatePolicy.null()
        )
        pairs = list(store.universe.pairs)[:60]
        direct = pair_feature_matrix(store.table, pairs, config)
        served = store.features(pairs, config)
        assert served.tobytes() == direct.tobytes()

    def test_null_stats(self, null_universe):
        stats = null_universe.blocking_stats()
        assert stats["pair_recall"] == 1.0
        assert stats["reduction_ratio"] == 0.0
        assert stats["candidates"] == stats["total_pairs"] == len(null_universe)

    def test_null_misses_nothing(self, tiny_headphones, null_universe):
        sources = sorted(tiny_headphones.sources())[:2]
        assert null_universe.missed_true_pairs(sources, within=False) == 0


class TestBlockedUniverse:
    def test_candidates_subset_of_cross_product(self, null_universe, blocked_universe):
        full = {p.key for p in null_universe.pairs}
        pruned = {p.key for p in blocked_universe.pairs}
        assert pruned <= full
        assert len(pruned) < len(full)

    def test_deterministic_under_fixed_policy(self, tiny_headphones, blocked_universe):
        again = PairUniverse(tiny_headphones, CandidatePolicy.from_label("minhash"))
        assert [p.key for p in again.pairs] == [p.key for p in blocked_universe.pairs]

    def test_labels_agree_with_ground_truth(self, tiny_headphones, blocked_universe):
        for pair in blocked_universe.pairs:
            assert pair.label == tiny_headphones.is_match(pair.left, pair.right)

    def test_stats_internally_consistent(self, blocked_universe):
        stats = blocked_universe.blocking_stats()
        universe = blocked_universe
        assert stats["policy"] == "minhash"
        assert stats["candidates"] == len(universe)
        assert stats["total_pairs"] == universe.total_cross_pairs()
        assert stats["reduction_ratio"] == pytest.approx(
            1.0 - stats["candidates"] / stats["total_pairs"]
        )
        kept_true = sum(1 for pair in universe.pairs if pair.label)
        true_total = len(universe.dataset.matching_pairs())
        assert stats["pair_recall"] == pytest.approx(kept_true / true_total)

    def test_missed_plus_kept_covers_slice_truth(
        self, tiny_headphones, blocked_universe
    ):
        sources = sorted(tiny_headphones.sources())[:2]
        for within in (True, False):
            kept_true = sum(
                1
                for pair in blocked_universe.subset(sources, within=within).pairs
                if pair.label
            )
            missed = blocked_universe.missed_true_pairs(sources, within=within)
            slice_true = sum(
                1
                for key in tiny_headphones.matching_pairs()
                if (
                    all(ref.source in sources for ref in key) == within
                )
            )
            assert missed >= 0
            assert kept_true + missed == slice_true

    def test_row_of_pruned_pair_names_policy(self, null_universe, blocked_universe):
        from repro.errors import ConfigurationError

        pruned_keys = {p.key for p in blocked_universe.pairs}
        dropped = next(
            pair for pair in null_universe.pairs if pair.key not in pruned_keys
        )
        with pytest.raises(ConfigurationError, match="minhash"):
            blocked_universe.row_of(dropped)

    def test_subsets_partition_universe(self, tiny_headphones, blocked_universe):
        sources = sorted(tiny_headphones.sources())[:2]
        inside = blocked_universe.subset(sources, within=True)
        outside = blocked_universe.subset(sources, within=False)
        assert len(inside) + len(outside) == len(blocked_universe)


class TestBlockedAddSourceEquivalence:
    @pytest.fixture(scope="class")
    def delta(self, tiny_headphones, tiny_embeddings):
        sources = sorted(tiny_headphones.sources())
        base = tiny_headphones.restrict_to_sources(sources[:-1])
        addition = tiny_headphones.restrict_to_sources(sources[-1:])
        store = PairFeatureStore.build(base, tiny_embeddings, policy=MINHASH)
        new_pairs = store.add_source(addition)
        rebuilt = PairFeatureStore.build(
            base.merged_with(addition), tiny_embeddings, policy=MINHASH
        )
        return store, new_pairs, rebuilt

    def test_matrix_bit_identical_to_cold_rebuild(self, delta):
        store, _, rebuilt = delta
        assert store.matrix.tobytes() == rebuilt.matrix.tobytes()

    def test_pair_enumeration_matches_rebuild(self, delta):
        store, _, rebuilt = delta
        assert [p.key for p in store.universe.pairs] == [
            p.key for p in rebuilt.universe.pairs
        ]

    def test_blocking_stats_match_rebuild(self, delta):
        store, _, rebuilt = delta
        assert store.universe.blocking_stats() == rebuilt.universe.blocking_stats()

    def test_new_pairs_are_exactly_the_universe_delta(
        self, tiny_headphones, tiny_embeddings, delta
    ):
        # Unlike the null policy, blocked new pairs are not necessarily
        # all new-vs-old: the sketch blocker's transitive expansion can
        # link two *base* properties through the added source's buckets.
        # The contract is purely set-theoretic -- the delta is whatever
        # the merged universe has that the base universe did not.
        store, new_pairs, _ = delta
        sources = sorted(tiny_headphones.sources())
        base = tiny_headphones.restrict_to_sources(sources[:-1])
        base_keys = {p.key for p in PairUniverse(base, MINHASH).pairs}
        merged_keys = {p.key for p in store.universe.pairs}
        assert new_pairs.pairs
        assert {p.key for p in new_pairs.pairs} == merged_keys - base_keys
        added = sources[-1]
        assert any(
            added in (pair.left.source, pair.right.source)
            for pair in new_pairs.pairs
        )

    def test_base_pairs_leaving_the_universe_are_dropped(
        self, tiny_headphones, tiny_embeddings
    ):
        # The added source pushes some base buckets past their caps, so
        # base candidates leave the merged universe.  The delta row map
        # must skip them and still copy every kept row bit for bit.
        sources = sorted(tiny_headphones.sources())
        base = tiny_headphones.restrict_to_sources(sources[:-1])
        addition = tiny_headphones.restrict_to_sources(sources[-1:])
        store = PairFeatureStore.build(base, tiny_embeddings, policy=MINHASH)
        grown, _ = store.with_source(addition)
        base_keys = {p.key for p in store.universe.pairs}
        assert base_keys - {p.key for p in grown.universe.pairs}
        old_rows = grown.universe.rows_from(store.universe)
        for row, pair in enumerate(grown.universe.pairs):
            if pair.key in base_keys:
                assert old_rows[row] == store.universe.row_of(pair)
                assert (
                    grown.matrix[row].tobytes()
                    == store.matrix[old_rows[row]].tobytes()
                )
            else:
                assert old_rows[row] == -1
        rebuilt = PairFeatureStore.build(
            base.merged_with(addition), tiny_embeddings, policy=MINHASH
        )
        assert grown.matrix.tobytes() == rebuilt.matrix.tobytes()

    def test_config_views_match_rebuild(self, delta):
        store, _, rebuilt = delta
        pairs = list(store.universe.pairs)[:40]
        for config in FeatureConfig.grid():
            np.testing.assert_array_equal(
                store.features(pairs, config), rebuilt.features(pairs, config)
            )
