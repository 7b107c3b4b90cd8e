"""Tests for permutation feature importance and matcher persistence."""

import numpy as np
import pytest

from repro.core import FeatureConfig, FeatureKinds, FeatureScope, LeapmeConfig, LeapmeMatcher
from repro.core.importance import (
    BlockImportance,
    permutation_importance,
    render_importance,
)
from repro.core.persistence import load_matcher, save_matcher
from repro.data.pairs import build_pairs, sample_training_pairs
from repro.errors import DataError, NotFittedError
from repro.nn.schedule import TrainingSchedule

FAST = LeapmeConfig(
    hidden_sizes=(32, 16),
    schedule=TrainingSchedule.from_pairs([(8, 1e-3), (2, 1e-4)]),
)


@pytest.fixture(scope="module")
def fitted(tiny_headphones_module, tiny_embeddings_module):
    dataset = tiny_headphones_module
    matcher = LeapmeMatcher(tiny_embeddings_module, config=FAST)
    rng = np.random.default_rng(0)
    training = sample_training_pairs(build_pairs(dataset), rng=rng)
    matcher.fit(dataset, training)
    return dataset, matcher, training


@pytest.fixture(scope="module")
def tiny_headphones_module():
    from repro.datasets import load_dataset

    return load_dataset("headphones", scale="tiny", seed=0)


@pytest.fixture(scope="module")
def tiny_embeddings_module():
    from repro.datasets import build_domain_embeddings

    return build_domain_embeddings("headphones", scale="tiny")


class TestPermutationImportance:
    def test_blocks_match_config(self, fitted, rng):
        dataset, matcher, pairs = fitted
        importances = permutation_importance(matcher, dataset, pairs, repeats=2, rng=rng)
        blocks = {item.block for item in importances}
        assert blocks == {
            "instance_meta",
            "instance_embedding",
            "name_embedding",
            "name_distances",
        }

    def test_sorted_by_importance(self, fitted, rng):
        dataset, matcher, pairs = fitted
        importances = permutation_importance(matcher, dataset, pairs, repeats=2, rng=rng)
        values = [item.importance for item in importances]
        assert values == sorted(values, reverse=True)

    def test_name_embedding_is_load_bearing(self, fitted, rng):
        # The paper: "The embedding features for property names are the
        # most effective features in LEAPME."
        dataset, matcher, pairs = fitted
        importances = permutation_importance(matcher, dataset, pairs, repeats=3, rng=rng)
        by_block = {item.block: item.importance for item in importances}
        assert by_block["name_embedding"] > 0.0

    def test_restricted_config_has_fewer_blocks(
        self, tiny_headphones_module, tiny_embeddings_module, rng
    ):
        dataset = tiny_headphones_module
        matcher = LeapmeMatcher(
            tiny_embeddings_module,
            FeatureConfig(FeatureScope.NAMES, FeatureKinds.EMBEDDING),
            config=FAST,
        )
        training = sample_training_pairs(build_pairs(dataset), rng=np.random.default_rng(1))
        matcher.fit(dataset, training)
        importances = permutation_importance(matcher, dataset, training, rng=rng)
        assert [item.block for item in importances] == ["name_embedding"]

    def test_unfitted_matcher_raises(self, tiny_embeddings_module, tiny_headphones_module):
        matcher = LeapmeMatcher(tiny_embeddings_module)
        pairs = sample_training_pairs(build_pairs(tiny_headphones_module))
        with pytest.raises(NotFittedError):
            permutation_importance(matcher, tiny_headphones_module, pairs)

    def test_render(self):
        items = [
            BlockImportance("name_embedding", 0.9, 0.4),
            BlockImportance("instance_meta", 0.9, 0.85),
        ]
        text = render_importance(items)
        assert "name_embedding" in text
        assert "+0.500" in text

    def test_render_empty(self):
        assert "no feature blocks" in render_importance([])


class TestPersistence:
    def test_roundtrip_scores_identical(self, fitted, tmp_path):
        dataset, matcher, pairs = fitted
        bundle = tmp_path / "bundle"
        save_matcher(matcher, bundle)
        loaded = load_matcher(bundle)
        original = matcher.score_pairs(dataset, pairs.select(np.arange(20)))
        restored = loaded.score_pairs(dataset, pairs.select(np.arange(20)))
        assert np.allclose(original, restored)

    def test_roundtrip_preserves_config(self, fitted, tmp_path):
        dataset, matcher, _ = fitted
        bundle = tmp_path / "bundle"
        save_matcher(matcher, bundle)
        loaded = load_matcher(bundle)
        assert loaded.feature_config == matcher.feature_config
        assert loaded.config.hidden_sizes == matcher.config.hidden_sizes
        assert loaded.config.schedule.total_epochs == matcher.config.schedule.total_epochs

    def test_bundle_files_present(self, fitted, tmp_path):
        _, matcher, _ = fitted
        bundle = tmp_path / "bundle"
        save_matcher(matcher, bundle)
        for filename in ("embeddings.npz", "network.npz", "scaler.npz", "config.json"):
            assert (bundle / filename).exists()

    def test_unfitted_matcher_rejected(self, tiny_embeddings_module, tmp_path):
        with pytest.raises(NotFittedError):
            save_matcher(LeapmeMatcher(tiny_embeddings_module), tmp_path / "x")

    def test_load_missing_bundle(self, tmp_path):
        with pytest.raises(DataError, match="missing config.json"):
            load_matcher(tmp_path / "nothing")

    def test_load_bad_version(self, fitted, tmp_path):
        import json

        _, matcher, _ = fitted
        bundle = tmp_path / "bundle"
        save_matcher(matcher, bundle)
        config = json.loads((bundle / "config.json").read_text())
        config["version"] = 42
        (bundle / "config.json").write_text(json.dumps(config))
        with pytest.raises(DataError, match="version"):
            load_matcher(bundle)

    def test_bundle_persists_resolved_schema(self, fitted, tmp_path):
        import json

        _, matcher, _ = fitted
        bundle = tmp_path / "bundle"
        save_matcher(matcher, bundle)
        payload = json.loads((bundle / "config.json").read_text())
        saved = payload["schema"]
        assert saved == matcher.schema.resolve(matcher.feature_config).to_dict()

    def test_load_rejects_mismatched_schema(self, fitted, tmp_path):
        import json

        _, matcher, _ = fitted
        bundle = tmp_path / "bundle"
        save_matcher(matcher, bundle)
        config = json.loads((bundle / "config.json").read_text())
        config["schema"]["dimension"] += 1
        (bundle / "config.json").write_text(json.dumps(config))
        with pytest.raises(DataError, match="schema"):
            load_matcher(bundle)

    def test_format_one_bundle_without_schema_still_loads(
        self, fitted, tmp_path
    ):
        import json

        dataset, matcher, pairs = fitted
        bundle = tmp_path / "bundle"
        save_matcher(matcher, bundle)
        config = json.loads((bundle / "config.json").read_text())
        config["version"] = 1
        del config["schema"]
        (bundle / "config.json").write_text(json.dumps(config))
        loaded = load_matcher(bundle)
        assert np.allclose(
            matcher.score_pairs(dataset, pairs.select(np.arange(10))),
            loaded.score_pairs(dataset, pairs.select(np.arange(10))),
        )


class TestCandidatePolicyPersistence:
    """Bundle format 3: the candidate policy travels with the matcher."""

    @pytest.fixture(scope="class")
    def blocked_fitted(self, tiny_headphones_module, tiny_embeddings_module):
        from repro.blocking import CandidatePolicy

        dataset = tiny_headphones_module
        matcher = LeapmeMatcher(
            tiny_embeddings_module,
            config=FAST,
            candidate_policy=CandidatePolicy.from_label("minhash:seed=7"),
        )
        store = matcher.build_feature_store(dataset)
        matcher.attach_store(store)
        training = sample_training_pairs(
            store.universe.subset(), 2.0, np.random.default_rng([0])
        )
        matcher.fit(dataset, training)
        return dataset, matcher

    def test_null_policy_persisted_by_default(self, fitted, tmp_path):
        import json

        _, matcher, _ = fitted
        bundle = tmp_path / "bundle"
        save_matcher(matcher, bundle)
        payload = json.loads((bundle / "config.json").read_text())
        assert payload["version"] == 3
        assert payload["candidate_policy"] == {"blocker": "null", "params": {}}

    def test_blocked_roundtrip_preserves_policy_and_scores(
        self, blocked_fitted, tmp_path
    ):
        dataset, matcher = blocked_fitted
        bundle = tmp_path / "bundle"
        save_matcher(matcher, bundle)
        loaded = load_matcher(bundle)
        assert loaded.candidate_policy == matcher.candidate_policy
        assert loaded.candidate_policy.label == "minhash:seed=7"
        pairs = matcher.store.universe.subset().select(np.arange(20))
        assert np.allclose(
            matcher.score_pairs(dataset, pairs),
            loaded.score_pairs(dataset, pairs),
        )

    def test_loaded_matcher_builds_blocked_stores(self, blocked_fitted, tmp_path):
        dataset, matcher = blocked_fitted
        bundle = tmp_path / "bundle"
        save_matcher(matcher, bundle)
        loaded = load_matcher(bundle)
        store = loaded.build_feature_store(dataset)
        assert store.universe.is_blocked
        assert [p.key for p in store.universe.pairs] == [
            p.key for p in matcher.store.universe.pairs
        ]

    def test_format_two_bundle_defaults_to_null(self, fitted, tmp_path):
        import json

        _, matcher, _ = fitted
        bundle = tmp_path / "bundle"
        save_matcher(matcher, bundle)
        config = json.loads((bundle / "config.json").read_text())
        config["version"] = 2
        del config["candidate_policy"]
        (bundle / "config.json").write_text(json.dumps(config))
        loaded = load_matcher(bundle)
        assert loaded.candidate_policy.is_null

    def test_corrupt_policy_rejected(self, fitted, tmp_path):
        import json

        _, matcher, _ = fitted
        bundle = tmp_path / "bundle"
        save_matcher(matcher, bundle)
        config = json.loads((bundle / "config.json").read_text())
        config["candidate_policy"] = {"blocker": "sorted-neighborhood"}
        (bundle / "config.json").write_text(json.dumps(config))
        with pytest.raises(DataError, match="corrupt"):
            load_matcher(bundle)

    def test_corrupt_policy_params_rejected(self, fitted, tmp_path):
        import json

        _, matcher, _ = fitted
        bundle = tmp_path / "bundle"
        save_matcher(matcher, bundle)
        config = json.loads((bundle / "config.json").read_text())
        config["candidate_policy"] = {"blocker": "minhash", "params": {"seed": "x"}}
        (bundle / "config.json").write_text(json.dumps(config))
        with pytest.raises(DataError, match="corrupt"):
            load_matcher(bundle)
