"""Tests for permutation feature importance."""

import numpy as np
import pytest

from repro.core import FeatureConfig, FeatureKinds, FeatureScope, LeapmeConfig, LeapmeMatcher
from repro.core.importance import (
    BlockImportance,
    permutation_importance,
    render_importance,
)
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

