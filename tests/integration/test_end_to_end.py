"""Integration tests: the full Algorithm 1 pipeline across subsystems."""

import numpy as np
import pytest

import repro
from repro import (
    FeatureConfig,
    FeatureKinds,
    LeapmeConfig,
    LeapmeMatcher,
    build_domain_embeddings,
    build_pairs,
    cluster_connected_components,
    clustering_metrics,
    evaluate_matcher,
    evaluate_scores,
    load_dataset,
    sample_training_pairs,
    split_sources,
)
from repro.evaluation import RunSettings
from repro.nn.schedule import TrainingSchedule

FAST = LeapmeConfig(
    hidden_sizes=(32, 16),
    schedule=TrainingSchedule.from_pairs([(8, 1e-3), (3, 1e-4)]),
)


class TestPublicApi:
    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None

    def test_version(self):
        assert repro.__version__


class TestAlgorithmOnePipeline:
    """Steps 1-5 of Algorithm 1 against a generated multi-source dataset."""

    @pytest.fixture(scope="class")
    def pipeline(self):
        dataset = load_dataset("headphones", scale="tiny", seed=1)
        embeddings = build_domain_embeddings("headphones", scale="tiny")
        rng = np.random.default_rng(0)
        split = split_sources(dataset, 0.7, rng)
        training = sample_training_pairs(
            build_pairs(dataset, list(split.train_sources), within=True), rng=rng
        )
        test = build_pairs(dataset, list(split.train_sources), within=False)
        matcher = LeapmeMatcher(embeddings, config=FAST)
        matcher.prepare(dataset)
        matcher.fit(dataset, training)
        return dataset, matcher, test

    def test_beats_majority_baseline(self, pipeline):
        dataset, matcher, test = pipeline
        scores = matcher.score_pairs(dataset, test)
        quality = evaluate_scores(scores, test.labels())
        assert quality.f1 > 0.5

    def test_similarity_graph_roundtrip(self, pipeline):
        dataset, matcher, test = pipeline
        graph = matcher.match(dataset, test)
        assert len(graph) == len(test)
        matches = graph.match_keys(0.5)
        truth = {pair.key for pair in test.positives()}
        overlap = len(matches & truth)
        assert overlap / max(1, len(truth)) > 0.4

    def test_clustering_downstream(self, pipeline):
        dataset, matcher, test = pipeline
        graph = matcher.match(dataset, test)
        clusters = cluster_connected_components(graph, 0.5)
        quality = clustering_metrics(
            clusters, dataset, restrict_to=set(graph.properties())
        )
        assert quality.f1 > 0.3

    def test_feature_config_changes_behaviour(self, pipeline):
        dataset, matcher, test = pipeline
        names_only = LeapmeMatcher(
            matcher.embeddings,
            FeatureConfig(kinds=FeatureKinds.EMBEDDING),
            config=FAST,
        )
        training = sample_training_pairs(
            build_pairs(dataset), rng=np.random.default_rng(0)
        )
        names_only.fit(dataset, training)
        full_scores = matcher.score_pairs(dataset, test.select(np.arange(20)))
        emb_scores = names_only.score_pairs(dataset, test.select(np.arange(20)))
        assert not np.allclose(full_scores, emb_scores)


class TestHarnessIntegration:
    def test_evaluate_matcher_full_protocol(self):
        dataset = load_dataset("tvs", scale="tiny", seed=2)
        embeddings = build_domain_embeddings("tvs", scale="tiny")
        matcher = LeapmeMatcher(embeddings, config=FAST)
        result = evaluate_matcher(
            matcher, dataset, RunSettings(train_fraction=0.6, repetitions=2, seed=1)
        )
        assert result.dataset_name == "tvs"
        assert len(result.qualities) + result.skipped_repetitions == 2
        assert 0.0 <= result.f1 <= 1.0

    def test_deterministic_across_runs(self):
        dataset = load_dataset("tvs", scale="tiny", seed=2)
        embeddings = build_domain_embeddings("tvs", scale="tiny")

        def run():
            matcher = LeapmeMatcher(embeddings, config=FAST)
            return evaluate_matcher(
                matcher, dataset, RunSettings(train_fraction=0.6, repetitions=1, seed=3)
            ).f1

        assert run() == pytest.approx(run())


class TestDatasetEmbeddingContract:
    """The matcher must tolerate vocabulary gaps like real GloVe users do."""

    def test_foreign_embeddings_still_work(self):
        # Embeddings trained on the *camera* domain applied to headphones:
        # most words are OOV (zero vectors) yet the pipeline must not fail.
        dataset = load_dataset("headphones", scale="tiny", seed=0)
        embeddings = build_domain_embeddings("cameras", scale="tiny")
        matcher = LeapmeMatcher(embeddings, config=FAST)
        training = sample_training_pairs(
            build_pairs(dataset), rng=np.random.default_rng(0)
        )
        matcher.fit(dataset, training)
        scores = matcher.score_pairs(dataset, training.select(np.arange(10)))
        assert np.isfinite(scores).all()
