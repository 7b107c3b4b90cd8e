"""One featurization route: a LEAPME matcher reads features from its store.

``prepare`` builds the matcher's :class:`PairFeatureStore` once; after
that, training, scoring universe pairs and permutation importance are
gathers from the store's tables -- no pipeline call, no name-distance
kernel call and no new property table.  Only name pairs of pairs a
blocked universe pruned reach the distance kernel, and only when the
pairs are cross-source pairs of the store's own dataset: any other pair
is rejected where its explicit set is built, and a pair set over
another dataset by the store, the same way under every candidate
policy.  A pair set over other pairs of the same dataset --
``build_pairs``' sets in active learning and transfer, explicit pairs --
is read by its property ends: no pair object is built and no row looked
up.
"""

import numpy as np
import pytest

from repro.blocking import CandidatePolicy
from repro.core import (
    FeatureConfig,
    LeapmeConfig,
    LeapmeMatcher,
    PairFeatureStore,
    PropertyFeatureTable,
    permutation_importance,
)
from repro.core.pipeline import FeaturePipeline
from repro.data.model import PropertyRef
from repro.data.pairs import (
    LabeledPair,
    build_pairs,
    explicit_pairs,
    sample_training_pairs,
)
from repro.data.splits import split_sources
from repro.datasets import build_domain_embeddings, load_dataset
from repro.errors import ConfigurationError
from repro.evaluation import run_transfer_experiment
from repro.evaluation.active import run_active_learning
from repro.nn.schedule import TrainingSchedule

from tests.conftest import full_matrix, pair_request
from tests.core.test_pair_sets import pair_work  # noqa: F401 -- shared fixture

LIGHT = LeapmeConfig(hidden_sizes=(8,), schedule=TrainingSchedule.constant(1, 1e-3))

POLICIES = ("null", "minhash")


@pytest.fixture()
def featurization_calls(monkeypatch):
    """Counts name-distance kernel calls and table builds."""
    calls = {"name_pair_rows": 0, "table": 0}
    name_pair_rows = FeaturePipeline.name_pair_rows
    table_init = PropertyFeatureTable.__init__

    def counted_name_pair_rows(self, *args, **kwargs):
        calls["name_pair_rows"] += 1
        return name_pair_rows(self, *args, **kwargs)

    def counted_table_init(self, *args, **kwargs):
        calls["table"] += 1
        table_init(self, *args, **kwargs)

    monkeypatch.setattr(FeaturePipeline, "name_pair_rows", counted_name_pair_rows)
    monkeypatch.setattr(PropertyFeatureTable, "__init__", counted_table_init)
    return calls


def _same_source_pair(dataset) -> LabeledPair:
    source = dataset.sources()[0]
    left, right = [ref for ref in dataset.properties() if ref.source == source][:2]
    return LabeledPair(left, right, False)


@pytest.mark.parametrize("policy", POLICIES)
def test_prepared_matcher_only_gathers(
    tiny_headphones, tiny_embeddings, featurization_calls, policy
):
    matcher = LeapmeMatcher(
        tiny_embeddings,
        config=LIGHT,
        candidate_policy=CandidatePolicy.from_label(policy),
    )
    matcher.prepare(tiny_headphones)
    universe = matcher.store.universe
    featurization_calls.update(name_pair_rows=0, table=0)

    training = sample_training_pairs(
        universe.subset(), 2.0, np.random.default_rng([0, 1])
    )
    matcher.fit(tiny_headphones, training)
    scores = matcher.score_pairs(
        tiny_headphones, explicit_pairs(tiny_headphones, *universe.ends())
    )
    importances = permutation_importance(
        matcher, tiny_headphones, universe.subset(), repeats=1
    )

    assert scores.shape == (len(universe),)
    assert importances
    assert featurization_calls == {"name_pair_rows": 0, "table": 0}


def test_fit_without_prepare_builds_the_store(tiny_headphones, tiny_embeddings):
    matcher = LeapmeMatcher(tiny_embeddings, config=LIGHT)
    assert matcher.store is None
    store = PairFeatureStore.build(tiny_headphones, tiny_embeddings)
    training = sample_training_pairs(
        store.universe.subset(), 2.0, np.random.default_rng([0, 2])
    )
    matcher.fit(tiny_headphones, training)
    assert matcher.store.serves(tiny_headphones)
    assert np.array_equal(
        full_matrix(matcher.store).view(np.uint32), full_matrix(store).view(np.uint32)
    )


@pytest.mark.parametrize("policy", POLICIES)
def test_same_source_pairs_are_rejected_by_the_store(
    tiny_headphones, tiny_embeddings, policy
):
    store = PairFeatureStore.build(
        tiny_headphones, tiny_embeddings, policy=CandidatePolicy.from_label(policy)
    )
    with pytest.raises(ConfigurationError, match="cross-source universe"):
        store.features(
            pair_request(tiny_headphones, [_same_source_pair(tiny_headphones)]),
            FeatureConfig(),
        )


@pytest.mark.parametrize("policy", POLICIES)
def test_foreign_pairs_are_rejected_by_the_store(
    tiny_headphones, tiny_cameras, tiny_embeddings, policy
):
    store = PairFeatureStore.build(
        tiny_headphones, tiny_embeddings, policy=CandidatePolicy.from_label(policy)
    )
    known = tiny_headphones.properties()[0]
    foreign = (known, PropertyRef("elsewhere", "weight"))
    with pytest.raises(ConfigurationError, match="cross-source universe"):
        store.features(pair_request(tiny_headphones, [foreign]), FeatureConfig())
    # A pair set over another dataset's universe is foreign as a whole.
    with pytest.raises(ConfigurationError, match="cross-source universe"):
        store.features(build_pairs(tiny_cameras), FeatureConfig())


@pytest.mark.parametrize("policy", POLICIES)
def test_same_source_pairs_are_rejected_by_score_pairs(
    tiny_headphones, tiny_embeddings, policy
):
    matcher = LeapmeMatcher(
        tiny_embeddings,
        config=LIGHT,
        candidate_policy=CandidatePolicy.from_label(policy),
    )
    matcher.prepare(tiny_headphones)
    universe = matcher.store.universe
    matcher.fit(
        tiny_headphones,
        sample_training_pairs(universe.subset(), 2.0, np.random.default_rng([0, 3])),
    )
    with pytest.raises(ConfigurationError, match="cross-source universe"):
        matcher.score_pairs(
            tiny_headphones,
            pair_request(tiny_headphones, [_same_source_pair(tiny_headphones)]),
        )


def test_active_learning_and_transfer_build_no_pairs(
    tiny_headphones, tiny_embeddings, pair_work
):
    """``build_pairs``' sets reach the matcher's store as property ends."""
    rng = np.random.default_rng([7, 31])
    train = list(split_sources(tiny_headphones, 0.6, rng).train_sources)
    curve = run_active_learning(
        LeapmeMatcher(tiny_embeddings, config=LIGHT),
        tiny_headphones,
        build_pairs(tiny_headphones, train, within=True),
        build_pairs(tiny_headphones, train, within=False),
        budgets=[10, 30, 50],
        strategy="uncertainty",
        rng=rng,
    )
    assert len(curve.f1_scores) == 3
    phones = load_dataset("phones", scale="tiny", seed=0)
    embeddings = build_domain_embeddings(["headphones", "phones"], scale="tiny")
    run_transfer_experiment(
        LeapmeMatcher(embeddings, config=LIGHT), tiny_headphones, phones, seed=3
    )
    assert pair_work == {"pairs": 0, "lookups": 0}
