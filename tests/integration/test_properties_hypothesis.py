"""Cross-module property-based tests (hypothesis).

These verify structural invariants that must hold for *any* generated
domain, matcher output or blocking decision -- the contracts the
subsystems rely on when composed.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blocking import CandidatePolicy, NullBlocker, TokenBlocker
from repro.core import PairUniverse
from repro.data.pairs import build_pairs, sample_training_pairs
from repro.data.splits import split_sources
from repro.datasets.generator import GenerationConfig, derive_semantics, generate_dataset
from repro.datasets.specs import (
    DomainSpec,
    EnumValueSpec,
    NumericValueSpec,
    ReferencePropertySpec,
)
from repro.graph.simgraph import SimilarityGraph
from repro.graph.clustering import cluster_star, clustering_metrics
from repro.metrics import evaluate_scores


def _spec(n_sources: int, n_props: int) -> DomainSpec:
    properties = tuple(
        ReferencePropertySpec(
            reference_name=f"prop{i}",
            name_variants=(f"alpha{i} main", f"beta{i} alt"),
            value_spec=(
                NumericValueSpec(1.0 + i, 100.0 + i, units=(f"u{i}", f"unit{i}"))
                if i % 2 == 0
                else EnumValueSpec(options=((f"on{i}", f"yes{i}"), (f"off{i}",)))
            ),
            exposure=0.9,
        )
        for i in range(n_props)
    )
    return DomainSpec(
        name="hyp",
        properties=properties,
        n_sources=n_sources,
        entities_per_source=4,
        junk_properties_per_source=1,
    )


domain_params = st.tuples(st.integers(2, 5), st.integers(2, 5), st.integers(0, 3))


class TestGeneratorInvariants:
    @given(params=domain_params)
    @settings(max_examples=15, deadline=None)
    def test_alignment_subset_of_properties(self, params):
        n_sources, n_props, seed = params
        dataset = generate_dataset(_spec(n_sources, n_props), GenerationConfig(seed=seed))
        properties = set(dataset.properties())
        assert set(dataset.alignment) <= properties

    @given(params=domain_params)
    @settings(max_examples=15, deadline=None)
    def test_matching_pairs_consistent_with_is_match(self, params):
        n_sources, n_props, seed = params
        dataset = generate_dataset(_spec(n_sources, n_props), GenerationConfig(seed=seed))
        for pair in dataset.matching_pairs():
            left, right = sorted(pair)
            assert dataset.is_match(left, right)

    @given(params=domain_params)
    @settings(max_examples=15, deadline=None)
    def test_semantics_partition(self, params):
        n_sources, n_props, _ = params
        semantics = derive_semantics(_spec(n_sources, n_props))
        grouped = semantics.lexicon.vocabulary()
        assert not grouped & set(semantics.soft_words)
        assert not grouped & set(semantics.singletons)

    @given(params=domain_params, fraction=st.floats(0.1, 0.9))
    @settings(max_examples=15, deadline=None)
    def test_split_then_pairs_partition(self, params, fraction):
        n_sources, n_props, seed = params
        dataset = generate_dataset(_spec(n_sources, n_props), GenerationConfig(seed=seed))
        split = split_sources(dataset, fraction, np.random.default_rng(seed))
        inside = build_pairs(dataset, list(split.train_sources), within=True)
        outside = build_pairs(dataset, list(split.train_sources), within=False)
        everything = build_pairs(dataset)
        assert len(inside) + len(outside) == len(everything)


class TestBlockingInvariants:
    @given(params=domain_params)
    @settings(max_examples=10, deadline=None)
    def test_token_blocker_subset_of_null(self, params):
        n_sources, n_props, seed = params
        dataset = generate_dataset(_spec(n_sources, n_props), GenerationConfig(seed=seed))
        null_keys = NullBlocker().candidate_keys(dataset)
        token_keys = TokenBlocker().candidate_keys(dataset)
        assert token_keys <= null_keys

    @given(params=domain_params)
    @settings(max_examples=10, deadline=None)
    def test_quality_bounds(self, params):
        n_sources, n_props, seed = params
        dataset = generate_dataset(_spec(n_sources, n_props), GenerationConfig(seed=seed))
        stats = PairUniverse(dataset, CandidatePolicy("token")).blocking_stats()
        assert 0.0 <= stats["pair_recall"] <= 1.0
        assert 0.0 <= stats["reduction_ratio"] <= 1.0

    @given(params=domain_params, blocker_seed=st.integers(0, 9))
    @settings(max_examples=10, deadline=None)
    def test_minhash_policy_subset_of_cross_product(self, params, blocker_seed):
        n_sources, n_props, seed = params
        dataset = generate_dataset(_spec(n_sources, n_props), GenerationConfig(seed=seed))
        policy = CandidatePolicy.from_label(f"minhash:seed={blocker_seed}")
        null_keys = NullBlocker().candidate_keys(dataset)
        minhash_keys = policy.resolve().candidate_keys(dataset)
        assert minhash_keys <= null_keys

    @given(params=domain_params, blocker_seed=st.integers(0, 9))
    @settings(max_examples=10, deadline=None)
    def test_minhash_policy_deterministic_under_fixed_seed(self, params, blocker_seed):
        n_sources, n_props, seed = params
        dataset = generate_dataset(_spec(n_sources, n_props), GenerationConfig(seed=seed))
        policy = CandidatePolicy.from_label(f"minhash:seed={blocker_seed}")
        first = policy.resolve().candidate_keys(dataset)
        second = policy.resolve().candidate_keys(dataset)
        assert first == second


class TestScoreEvaluationInvariants:
    @given(
        scores=st.lists(st.floats(0, 1), min_size=1, max_size=50),
        threshold=st.floats(0.05, 0.95),
        seed=st.integers(0, 99),
    )
    @settings(max_examples=30, deadline=None)
    def test_confusion_counts_partition(self, scores, threshold, seed):
        scores = np.array(scores)
        labels = np.random.default_rng(seed).integers(0, 2, size=len(scores))
        quality = evaluate_scores(scores, labels, threshold)
        predicted = int((scores >= threshold).sum())
        assert quality.true_positives + quality.false_positives == predicted
        assert quality.true_positives + quality.false_negatives == int(labels.sum())


class TestClusteringInvariants:
    @given(
        n_nodes=st.integers(2, 8),
        seed=st.integers(0, 99),
        threshold=st.floats(0.1, 0.9),
    )
    @settings(max_examples=20, deadline=None)
    def test_star_covers_all_nodes_once(self, n_nodes, seed, threshold):
        from repro.data.model import PropertyRef

        rng = np.random.default_rng(seed)
        refs = [PropertyRef(f"s{i % 3}", f"p{i}") for i in range(n_nodes)]
        graph = SimilarityGraph()
        for i in range(n_nodes):
            for j in range(i + 1, n_nodes):
                if refs[i] != refs[j]:
                    graph.add(refs[i], refs[j], float(rng.random()))
        clusters = cluster_star(graph, threshold)
        flattened = [ref for cluster in clusters for ref in cluster]
        assert sorted(flattened) == sorted(set(refs))
        assert len(flattened) == len(set(flattened))
