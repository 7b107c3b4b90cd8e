"""Tests for the five baseline matchers."""

import numpy as np
import pytest

from repro.baselines import (
    AmlMatcher,
    FcaMapMatcher,
    LshMatcher,
    NezhadiMatcher,
    SemPropMatcher,
)
from repro.baselines.lsh import MinHasher
from repro.data.model import Dataset, PropertyInstance, PropertyRef
from repro.data.pairs import build_pairs, sample_training_pairs
from repro.errors import ConfigurationError, NotFittedError
from repro.evaluation.metrics import evaluate_scores
from tests.conftest import pair_request


def _pair(s1, n1, s2, n2):
    return PropertyRef(s1, n1), PropertyRef(s2, n2)


def _pairs(dataset, *pairs):
    """The ``_pair`` ref tuples as an explicit set over ``dataset``."""
    return pair_request(dataset, pairs)


@pytest.fixture()
def dataset():
    instances = [
        PropertyInstance("s1", "resolution", "e1", "20 mp"),
        PropertyInstance("s1", "weight", "e1", "500 g"),
        PropertyInstance("s2", "Resolution", "e2", "24 mp"),
        PropertyInstance("s2", "heft", "e2", "600 g"),
    ]
    # Unaligned properties the hand-built pairs below name.
    for source, names in (
        ("s1", ("screen_size", "a", "wireless", "impedance", "zzgadget")),
        ("s2", ("Screen-Size", "b", "bluetooth", "cordless link", "playtime")),
        ("s2", ("zzgadgets",)),
    ):
        instances += [PropertyInstance(source, name, "e0", "x") for name in names]
    alignment = {
        PropertyRef("s1", "resolution"): "resolution",
        PropertyRef("s2", "Resolution"): "resolution",
        PropertyRef("s1", "weight"): "weight",
        PropertyRef("s2", "heft"): "weight",
    }
    return Dataset("t", instances, alignment)


class TestAml:
    def test_identical_normalised_names_match(self, dataset):
        matcher = AmlMatcher()
        scores = matcher.score_pairs(
            dataset, _pairs(dataset, _pair("s1", "resolution", "s2", "Resolution"))
        )
        assert scores[0] == 1.0

    def test_unrelated_names_do_not_match(self, dataset):
        matcher = AmlMatcher()
        scores = matcher.score_pairs(
            dataset, _pairs(dataset, _pair("s1", "weight", "s2", "Resolution"))
        )
        assert scores[0] < matcher.threshold

    def test_separator_variants_match(self, dataset):
        matcher = AmlMatcher()
        scores = matcher.score_pairs(
            dataset, _pairs(dataset, _pair("s1", "screen_size", "s2", "Screen-Size"))
        )
        assert scores[0] >= matcher.threshold

    def test_synonyms_are_missed(self, dataset):
        # The paper's point: no background knowledge maps "heft" to "weight".
        matcher = AmlMatcher()
        scores = matcher.score_pairs(
            dataset, _pairs(dataset, _pair("s1", "weight", "s2", "heft"))
        )
        assert scores[0] < matcher.threshold

    def test_is_unsupervised(self):
        assert not AmlMatcher().is_supervised


class TestFcaMap:
    def test_same_token_set_matches(self, dataset):
        matcher = FcaMapMatcher()
        matcher.prepare(dataset)
        scores = matcher.score_pairs(
            dataset, _pairs(dataset, _pair("s1", "resolution", "s2", "Resolution"))
        )
        assert scores[0] == 1.0

    def test_different_token_sets_never_match(self, dataset):
        matcher = FcaMapMatcher()
        matcher.prepare(dataset)
        scores = matcher.score_pairs(
            dataset, _pairs(dataset, _pair("s1", "weight", "s2", "heft"))
        )
        assert scores[0] == 0.0

    def test_prepare_called_lazily(self, dataset):
        matcher = FcaMapMatcher()
        scores = matcher.score_pairs(
            dataset, _pairs(dataset, _pair("s1", "resolution", "s2", "Resolution"))
        )
        assert scores[0] == 1.0

    def test_concepts_partition_properties(self, dataset):
        matcher = FcaMapMatcher()
        matcher.prepare(dataset)
        concepts = matcher.concepts()
        members = [ref for refs in concepts.values() for ref in refs]
        assert sorted(members) == dataset.properties()


class TestNezhadi:
    def test_learns_string_similarity(self, tiny_headphones, rng):
        training = sample_training_pairs(build_pairs(tiny_headphones), rng=rng)
        matcher = NezhadiMatcher()
        matcher.fit(tiny_headphones, training)
        scores = matcher.score_pairs(tiny_headphones, training)
        quality = evaluate_scores(scores, training.labels(), matcher.threshold)
        assert quality.f1 > 0.4

    def test_all_classifier_kinds_run(self, tiny_headphones, rng):
        training = sample_training_pairs(build_pairs(tiny_headphones), rng=rng)
        for kind in ("adaboost", "tree", "knn", "naive_bayes"):
            matcher = NezhadiMatcher(kind)
            matcher.fit(tiny_headphones, training)
            first = training.select(np.arange(5))
            scores = matcher.score_pairs(tiny_headphones, first)
            assert scores.shape == (5,)
            assert ((scores >= 0) & (scores <= 1)).all()

    def test_unknown_classifier(self):
        with pytest.raises(ConfigurationError, match="unknown classifier"):
            NezhadiMatcher("svm")

    def test_unfitted_raises(self, dataset):
        with pytest.raises(NotFittedError):
            NezhadiMatcher().score_pairs(
                dataset, _pairs(dataset, _pair("s1", "a", "s2", "b"))
            )

    def test_name_includes_variant(self):
        assert NezhadiMatcher("tree").name == "Nezhadi[tree]"
        assert NezhadiMatcher().name == "Nezhadi"


class TestSemProp:
    def test_semantic_link_via_embeddings(self, tiny_embeddings, dataset):
        matcher = SemPropMatcher(tiny_embeddings)
        # Words from the same synonym group should link.
        scores = matcher.score_pairs(
            dataset, _pairs(dataset, _pair("s1", "wireless", "s2", "bluetooth"))
        )
        assert scores[0] >= matcher.threshold

    def test_unrelated_rejected(self, tiny_embeddings, dataset):
        matcher = SemPropMatcher(tiny_embeddings)
        scores = matcher.score_pairs(
            dataset, _pairs(dataset, _pair("s1", "impedance", "s2", "playtime"))
        )
        assert scores[0] < matcher.threshold

    def test_syntactic_fallback(self, tiny_embeddings, dataset):
        # Unknown words -> zero vectors -> coherence 0 -> handled by gates;
        # near-identical spellings still link syntactically when coherence
        # is inside the undecided band.
        matcher = SemPropMatcher(tiny_embeddings, sema_negative=0.0)
        scores = matcher.score_pairs(
            dataset, _pairs(dataset, _pair("s1", "zzgadget", "s2", "zzgadgets"))
        )
        assert scores[0] >= matcher.threshold

    def test_reciprocal_best_demotes_second_best(self, tiny_embeddings, dataset):
        plain = SemPropMatcher(tiny_embeddings)
        strict = SemPropMatcher(tiny_embeddings, reciprocal_best=True)
        pairs = _pairs(
            dataset,
            _pair("s1", "wireless", "s2", "bluetooth"),
            _pair("s1", "wireless", "s2", "cordless link"),
        )
        raw = plain.score_pairs(dataset, pairs)
        selected = strict.score_pairs(dataset, pairs)
        # The weaker of the two links is demoted below threshold.
        weaker = int(np.argmin(raw))
        if abs(raw[0] - raw[1]) > 0.02:
            assert selected[weaker] < strict.threshold

    def test_threshold_validation(self, tiny_embeddings):
        with pytest.raises(ConfigurationError):
            SemPropMatcher(tiny_embeddings, sema_negative=0.5, sema_positive=0.4)


class TestMinHasher:
    def test_identical_sets_agree(self):
        hasher = MinHasher(num_hashes=32)
        tokens = {"a", "b", "c"}
        assert MinHasher.estimate_jaccard(
            hasher.signature(tokens), hasher.signature(set(tokens))
        ) == 1.0

    def test_estimate_tracks_true_jaccard(self):
        hasher = MinHasher(num_hashes=256, seed=1)
        a = {f"t{i}" for i in range(100)}
        b = {f"t{i}" for i in range(50, 150)}
        estimate = MinHasher.estimate_jaccard(hasher.signature(a), hasher.signature(b))
        true_jaccard = 50 / 150
        assert estimate == pytest.approx(true_jaccard, abs=0.1)

    def test_empty_set_signature(self):
        hasher = MinHasher(num_hashes=8)
        signature = hasher.signature(set())
        assert (signature == np.iinfo(np.int64).max).all()

    def test_invalid_config(self):
        with pytest.raises(ConfigurationError):
            MinHasher(num_hashes=0)


class TestLsh:
    def test_shared_value_tokens_match(self, dataset):
        matcher = LshMatcher()
        matcher.prepare(dataset)
        scores = matcher.score_pairs(
            dataset, _pairs(dataset, _pair("s1", "resolution", "s2", "Resolution"))
        )
        # Both properties' values contain "mp" tokens.
        assert scores[0] > 0.0

    def test_name_blind(self):
        # Identical names, disjoint values -> no match.
        instances = [
            PropertyInstance("s1", "p", "e1", "alpha beta"),
            PropertyInstance("s2", "p", "e2", "gamma delta"),
        ]
        dataset = Dataset("x", instances, {})
        matcher = LshMatcher()
        matcher.prepare(dataset)
        scores = matcher.score_pairs(
            dataset, _pairs(dataset, _pair("s1", "p", "s2", "p"))
        )
        assert scores[0] < matcher.threshold

    def test_band_size_must_divide(self):
        with pytest.raises(ConfigurationError):
            LshMatcher(num_hashes=64, band_size=3)

    def test_quality_on_real_domain(self, tiny_cameras):
        matcher = LshMatcher()
        matcher.prepare(tiny_cameras)
        pairs = build_pairs(tiny_cameras)
        quality = evaluate_scores(
            matcher.score_pairs(tiny_cameras, pairs),
            pairs.labels(),
            matcher.threshold,
        )
        # Instance-based matching is meaningfully better than chance on
        # the value-rich camera domain.
        assert quality.f1 > 0.3


class TestPreparedStateFollowsContent:
    """FCA-Map and LSH re-prepare when a dataset's content changes.

    ``Dataset.merged_with`` keeps the base's name, so state keyed on the
    name served the base's concepts and signatures to the merged
    dataset: FCA-Map scored some pairs differently from a fresh
    matcher, and LSH raised on the new source's first property.
    """

    @pytest.mark.parametrize("factory", [FcaMapMatcher, LshMatcher])
    def test_merged_dataset_scores_like_a_fresh_matcher(self, tiny_headphones, factory):
        sources = tiny_headphones.sources()
        base = tiny_headphones.restrict_to_sources(sources[:-1])
        merged = base.merged_with(tiny_headphones.restrict_to_sources(sources[-1:]))
        assert merged.name == base.name
        matcher = factory()
        matcher.prepare(base)
        pairs = build_pairs(merged)
        np.testing.assert_array_equal(
            matcher.score_pairs(merged, pairs), factory().score_pairs(merged, pairs)
        )

