"""Tests for candidate blocking."""

import pytest

from repro.blocking import CandidatePolicy, MinHashBlocker, NullBlocker, TokenBlocker
from repro.core import PairUniverse
from repro.data.model import Dataset, PropertyInstance, PropertyRef
from repro.data.pairs import build_pairs
from repro.errors import ConfigurationError


@pytest.fixture()
def dataset():
    instances = [
        PropertyInstance("s1", "resolution", "e1", "20 mp"),
        PropertyInstance("s1", "weight", "e1", "500 grams"),
        PropertyInstance("s2", "resolution", "e2", "24 mp"),
        PropertyInstance("s2", "color", "e2", "black"),
        PropertyInstance("s3", "weight_spec", "e3", "600 grams"),
    ]
    alignment = {
        PropertyRef("s1", "resolution"): "resolution",
        PropertyRef("s2", "resolution"): "resolution",
        PropertyRef("s1", "weight"): "weight",
        PropertyRef("s3", "weight_spec"): "weight",
    }
    return Dataset("b", instances, alignment)


class TestNullBlocker:
    def test_keeps_everything(self, dataset):
        keys = NullBlocker().candidate_keys(dataset)
        assert len(keys) == len(build_pairs(dataset))

    def test_candidate_pairs_labelled(self, dataset):
        pairs = PairUniverse(dataset, CandidatePolicy.null()).subset()
        assert len(pairs.positives()) == len(dataset.matching_pairs())


class TestTokenBlocker:
    def test_shared_name_token_kept(self, dataset):
        keys = TokenBlocker(use_values=False).candidate_keys(dataset)
        assert frozenset(
            (PropertyRef("s1", "resolution"), PropertyRef("s2", "resolution"))
        ) in keys

    def test_name_variants_with_shared_token(self, dataset):
        keys = TokenBlocker(use_values=False).candidate_keys(dataset)
        # "weight" vs "weight_spec" share the token "weight".
        assert frozenset(
            (PropertyRef("s1", "weight"), PropertyRef("s3", "weight_spec"))
        ) in keys

    def test_disjoint_names_pruned_without_values(self, dataset):
        keys = TokenBlocker(use_values=False).candidate_keys(dataset)
        assert frozenset(
            (PropertyRef("s1", "resolution"), PropertyRef("s2", "color"))
        ) not in keys

    def test_value_tokens_recover_synonym_pairs(self):
        instances = [
            PropertyInstance("s1", "weight", "e1", "500 grams"),
            PropertyInstance("s2", "heft", "e2", "600 grams"),
            PropertyInstance("s2", "other", "e2", "xyz"),
        ]
        dataset = Dataset("v", instances, {})
        keys = TokenBlocker(use_values=True).candidate_keys(dataset)
        # Disjoint names, but both values carry the selective token "grams".
        assert frozenset((PropertyRef("s1", "weight"), PropertyRef("s2", "heft"))) in keys

    def test_never_same_source(self, dataset):
        for key in TokenBlocker().candidate_keys(dataset):
            left, right = sorted(key)
            assert left.source != right.source

    def test_invalid_fraction(self):
        with pytest.raises(ConfigurationError):
            TokenBlocker(max_value_token_fraction=0.0)


class TestMinHashBlocker:
    def test_similar_token_sets_become_candidates(self, dataset):
        keys = MinHashBlocker(num_hashes=32, band_size=1).candidate_keys(dataset)
        assert frozenset(
            (PropertyRef("s1", "resolution"), PropertyRef("s2", "resolution"))
        ) in keys

    def test_band_size_controls_selectivity(self, tiny_headphones):
        loose = MinHashBlocker(num_hashes=32, band_size=1).candidate_keys(tiny_headphones)
        strict = MinHashBlocker(num_hashes=32, band_size=8).candidate_keys(tiny_headphones)
        assert len(strict) <= len(loose)

    def test_invalid_band(self):
        with pytest.raises(ConfigurationError):
            MinHashBlocker(num_hashes=32, band_size=5)


class TestBlockingQuality:
    def test_null_blocker_perfect_completeness(self, dataset):
        stats = PairUniverse(dataset, CandidatePolicy.null()).blocking_stats()
        assert stats["pair_recall"] == 1.0
        assert stats["reduction_ratio"] == 0.0

    def test_token_blocker_reduces_on_real_domain(self, tiny_cameras):
        stats = PairUniverse(tiny_cameras, CandidatePolicy("token")).blocking_stats()
        assert stats["reduction_ratio"] > 0.2
        assert stats["pair_recall"] > 0.5

    def test_empty_candidates(self):
        instances = [
            PropertyInstance("s1", "alpha", "e1", "x"),
            PropertyInstance("s2", "beta", "e2", "y"),
        ]
        alignment = {PropertyRef("s1", "alpha"): "t", PropertyRef("s2", "beta"): "t"}
        dataset = Dataset("x", instances, alignment)
        stats = PairUniverse(dataset, CandidatePolicy("token")).blocking_stats()
        assert stats["candidates"] == 0
        assert stats["pair_recall"] == 0.0
        assert stats["reduction_ratio"] == 1.0

    def test_no_true_pairs_is_complete(self):
        instances = [
            PropertyInstance("s1", "a", "e", "v"),
            PropertyInstance("s2", "b", "e2", "w"),
        ]
        dataset = Dataset("x", instances, {})
        stats = PairUniverse(dataset, CandidatePolicy("token")).blocking_stats()
        assert stats["candidates"] == 0
        assert stats["pair_recall"] == 1.0
