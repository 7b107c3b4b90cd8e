"""Pair sets are row arrays over their universe.

Every :class:`PairSet` carries its universe rows; the LEAPME path --
subset, training sample, fit, score -- reads those rows and the
universe's label array and never builds a :class:`LabeledPair` or looks
a pair up.  Sets and samples must hold the pairs the seed enumeration
(``tests.data.oracle.seed_pairs``) and an object walk give.  Pairs a
caller names become an explicit set once, at the edge, over their
dataset's property indices in their own orientation; the store reads
its ends, so the rows it serves follow the list the set was built from.
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
from repro.data.pairs import (
    LabeledPair,
    build_pairs,
    explicit_pairs,
    sample_training_pairs,
)
from repro.errors import ConfigurationError
from repro.graph.incremental import IncrementalClusterer
from repro.nn.schedule import TrainingSchedule

from tests.conftest import direct_pair_matrix, pair_request
from tests.serve.conftest import make_registry, make_spec, write_extra_source
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

    def counted_lookup(self, *ends):
        calls["lookups"] += 1
        return lookup_rows(self, *ends)

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
        dataset = store.universe.dataset
        universe_pairs = list(store.universe.pairs)
        requested = universe_pairs[:3]
        assert len(store.features(pair_request(dataset, requested), config)) == 3
        requested.append(universe_pairs[10])
        served = store.features(pair_request(dataset, requested), config)
        assert len(served) == 4
        np.testing.assert_array_equal(
            served, direct_pair_matrix(store.table, requested, config)
        )
        requested[0] = universe_pairs[20].right, universe_pairs[20].left
        np.testing.assert_array_equal(
            store.features(pair_request(dataset, requested), config),
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
            grown.universe.lookup_rows(*new_pairs.ends()), new_pairs.rows
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


class TestExplicitPairs:
    def test_keep_the_caller_orientation_and_labels(self, tiny_headphones, store):
        left, right = store.universe.ends(np.arange(20))
        reversed_pairs = explicit_pairs(tiny_headphones, right, left)
        assert [(pair.left, pair.right) for pair in reversed_pairs] == [
            (pair.right, pair.left) for pair in store.universe.pairs_at(np.arange(20))
        ]
        np.testing.assert_array_equal(
            reversed_pairs.labels(), store.universe.subset().labels()[:20]
        )

    def test_constructor_rejects_a_foreign_ref_and_a_same_source_pair(
        self, tiny_headphones
    ):
        count = len(tiny_headphones.properties())
        # Properties 0 and 1 are the first source's; the last is not.
        for left, right in ([0, -1], [0, count], [0, 1]):
            with pytest.raises(ConfigurationError, match="cross-source universe"):
                explicit_pairs(tiny_headphones, [0, left], [count - 1, right])


def test_predict_and_clusterer_build_no_pair_objects(
    tmp_path, tiny_headphones, tiny_embeddings, pair_work
):
    """Explicit pairs go from the edge to the scores as property indices."""
    registry = make_registry(tmp_path)
    registry.create(make_spec(tmp_path, system="leapme", blocking="minhash"))
    registry.add_source("t1", write_extra_source(tmp_path))
    state = registry.get("t1").state
    raw_pairs = [
        [left.source, left.name, right.source, right.name]
        for left in state.dataset.properties()
        for right in state.dataset.properties()
        if left.source < right.source
    ]
    pair_work.update(pairs=0, lookups=0)
    assert len(registry.predict_payload("t1", raw_pairs)["scores"]) == len(raw_pairs)
    assert pair_work == {"pairs": 0, "lookups": 1}

    matcher = LeapmeMatcher(tiny_embeddings, config=LIGHT)
    training = build_pairs(tiny_headphones)
    matcher.fit(
        tiny_headphones,
        sample_training_pairs(training, 2.0, np.random.default_rng(3)),
    )
    clusterer = IncrementalClusterer(matcher, tiny_headphones)
    first, second = tiny_headphones.sources()[:2]
    clusterer.add_source(first)
    pair_work.update(pairs=0, lookups=0)
    clusterer.add_source(second)
    assert pair_work == {"pairs": 0, "lookups": 0}
