"""Pair sets are row arrays over their universe.

Every :class:`PairSet` carries its universe rows; the LEAPME path --
subset, training sample, fit, score -- reads those rows and the
universe's label array and never builds a :class:`LabeledPair` or looks
a pair up.  Sets and samples must hold the pairs the seed enumeration
(``tests.data.oracle.seed_pairs``) and an object walk give.  A plain
pair list passed to the store has no rows of its own, so the store
looks it up on every request and the rows it serves follow the list as
it is now.
"""

import numpy as np
import pytest

from repro.blocking import CandidatePolicy
from repro.core import (
    FeatureConfig,
    LeapmeConfig,
    LeapmeMatcher,
    PairFeatureStore,
    PairUniverse,
)
from repro.data.pairs import LabeledPair, build_pairs, sample_training_pairs
from repro.nn.schedule import TrainingSchedule

from tests.conftest import direct_pair_matrix
from tests.data.oracle import seed_pairs

LIGHT = LeapmeConfig(hidden_sizes=(8,), schedule=TrainingSchedule.constant(1, 1e-3))

POLICIES = ("null", "minhash")


@pytest.fixture(scope="module")
def store(tiny_headphones, tiny_embeddings):
    return PairFeatureStore.build(tiny_headphones, tiny_embeddings)


@pytest.fixture()
def pair_work(monkeypatch):
    """Counts ``LabeledPair`` constructions and ``lookup_rows`` calls."""
    calls = {"pairs": 0, "lookups": 0}
    pair_init = LabeledPair.__init__
    lookup_rows = PairUniverse.lookup_rows

    def counted_init(self, *args, **kwargs):
        calls["pairs"] += 1
        pair_init(self, *args, **kwargs)

    def counted_lookup(self, pairs):
        calls["lookups"] += 1
        return lookup_rows(self, pairs)

    monkeypatch.setattr(LabeledPair, "__init__", counted_init)
    monkeypatch.setattr(PairUniverse, "lookup_rows", counted_lookup)
    return calls


def _object_sample(pairs: list, negative_ratio: float, rng) -> list:
    """The sampler as a walk over pair objects: the draw to reproduce."""
    positives = [pair for pair in pairs if pair.label]
    negatives = [pair for pair in pairs if not pair.label]
    wanted = int(round(negative_ratio * len(positives)))
    if wanted < len(negatives):
        chosen = rng.choice(len(negatives), size=wanted, replace=False)
        negatives = [negatives[int(i)] for i in chosen]
    combined = positives + negatives
    return [combined[int(i)] for i in rng.permutation(len(combined))]


class TestListRequests:
    def test_rows_follow_a_list_mutated_between_requests(self, store):
        config = FeatureConfig()
        universe_pairs = list(store.universe.pairs)
        requested = universe_pairs[:3]
        assert len(store.features(requested, config)) == 3
        requested.append(universe_pairs[10])
        served = store.features(requested, config)
        assert len(served) == 4
        np.testing.assert_array_equal(
            served, direct_pair_matrix(store.table, requested, config)
        )
        requested[0] = universe_pairs[20]
        np.testing.assert_array_equal(
            store.features(requested, config),
            direct_pair_matrix(store.table, requested, config),
        )


class TestSubsets:
    def test_every_call_is_a_fresh_equal_set_with_read_only_rows(
        self, tiny_headphones, store
    ):
        sources = tiny_headphones.sources()[:3]
        first = store.universe.subset(sources, within=False)
        second = store.universe.subset(sources, within=False)
        assert first is not second
        assert first == second
        assert first.universe is store.universe
        assert not first.rows.flags.writeable
        with pytest.raises(ValueError):
            first.rows[0] = 0
        first.pairs.pop()
        assert second.pairs == seed_pairs(tiny_headphones, sources, within=False)

    def test_labels_gather_from_the_universe(self, tiny_headphones, store):
        subset = store.universe.subset(tiny_headphones.sources()[:2])
        listed = seed_pairs(tiny_headphones, tiny_headphones.sources()[:2])
        np.testing.assert_array_equal(
            subset.labels(), [int(pair.label) for pair in listed]
        )
        assert subset.labels().dtype == np.int64
        assert subset.positives() == [pair for pair in listed if pair.label]
        assert subset.negatives() == [pair for pair in listed if not pair.label]

    def test_new_pairs_of_a_delta_are_universe_rows(
        self, tiny_headphones, store
    ):
        sources = tiny_headphones.sources()
        base = PairFeatureStore.build(
            tiny_headphones.restrict_to_sources(sources[:-1]),
            store.table.pipeline.embeddings,
        )
        grown, new_pairs = base.with_source(
            tiny_headphones.restrict_to_sources(sources[-1:])
        )
        assert new_pairs.universe is grown.universe
        assert all(sources[-1] in (p.left.source, p.right.source) for p in new_pairs)
        np.testing.assert_array_equal(
            grown.universe.lookup_rows(new_pairs.pairs), new_pairs.rows
        )


class TestSampler:
    @pytest.mark.parametrize("ratio", [0.5, 2.0, 100.0])
    def test_draws_are_identical_over_lists_and_universe_rows(
        self, tiny_headphones, store, ratio
    ):
        sources = tiny_headphones.sources()[:4]
        candidates = store.universe.subset(sources)
        built = build_pairs(tiny_headphones, sources)
        from_rows = sample_training_pairs(
            candidates, ratio, np.random.default_rng([4, 1709])
        )
        from_built = sample_training_pairs(
            built, ratio, np.random.default_rng([4, 1709])
        )
        assert from_rows.universe is store.universe
        assert from_built.universe is built.universe
        assert from_rows.pairs == from_built.pairs
        assert from_rows.pairs == _object_sample(
            seed_pairs(tiny_headphones, sources),
            ratio,
            np.random.default_rng([4, 1709]),
        )


@pytest.mark.parametrize("policy", POLICIES)
def test_leapme_path_builds_no_pair_objects(
    tiny_headphones, tiny_embeddings, pair_work, policy
):
    PairUniverse(tiny_headphones, CandidatePolicy.from_label(policy))
    assert pair_work == {"pairs": 0, "lookups": 0}

    matcher = LeapmeMatcher(
        tiny_embeddings,
        config=LIGHT,
        candidate_policy=CandidatePolicy.from_label(policy),
    )
    matcher.prepare(tiny_headphones)
    universe = matcher.store.universe
    train = tiny_headphones.sources()[:3]
    pair_work.update(pairs=0, lookups=0)

    training = sample_training_pairs(
        universe.subset(train, within=True), 2.0, np.random.default_rng([0, 1709])
    )
    matcher.fit(tiny_headphones, training)
    test = universe.subset(train, within=False)
    scores = matcher.score_pairs(tiny_headphones, test)
    assert pair_work == {"pairs": 0, "lookups": 0}
    assert scores.shape == (len(test),)
