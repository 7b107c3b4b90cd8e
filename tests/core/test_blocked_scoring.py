"""Blocked scoring must score exactly like the whole matrix at once.

``LeapmeMatcher.score_pairs`` gathers each
:func:`repro.nn.network.row_blocks` block straight from the feature
store, and ``match_scores`` scales it into one float64 scratch block.
For a network the whole-matrix formula,
``network.predict_proba(scaler.transform(store.features(pairs,
config)))[:, 1]``, is the oracle: every score must be bit-identical to
it, for every grid config and for sizes on both sides of each block
boundary.  BLAS does not promise this (DESIGN §17), so it is pinned here.
The classical fallback rung's oracle is its own ``match_scores`` over the
same blocks: its logistic head rounds by row count past OpenBLAS's
small-matrix cutoff, so only blocks are comparable.
"""

import tracemalloc

import numpy as np
import pytest

from repro.blocking import CandidatePolicy
from repro.core import FeatureConfig, LeapmeConfig, LeapmeMatcher
from repro.core.classifier import LeapmeClassifier, ResilientClassifier
from repro.core.feature_cache import PairFeatureStore
from repro.data.pairs import build_pairs, sample_training_pairs
from repro.data.splits import split_sources
from repro.datasets import build_domain_embeddings, load_dataset
from repro.evaluation import RunSettings, evaluate_matcher
from repro.nn.network import ROW_BLOCK, row_blocks
from repro.nn.schedule import TrainingSchedule
from repro.testing.faults import AlwaysDivergingClassifier

from tests.conftest import direct_pair_matrix

#: Sizes around each block boundary, including a merged 1-row tail.
SIZES = (
    1, 2, 3, ROW_BLOCK - 1, ROW_BLOCK, ROW_BLOCK + 1, 2 * ROW_BLOCK + 1, 3 * ROW_BLOCK + 5
)

ONE_EPOCH = TrainingSchedule.constant(1, 1e-3)
LIGHT = LeapmeConfig(hidden_sizes=(8,), schedule=ONE_EPOCH)
#: The paper's 128-64-2 network; one epoch is enough to pin its shapes.
PAPER = LeapmeConfig(schedule=ONE_EPOCH)

UNSCALED = LeapmeConfig(hidden_sizes=(8,), schedule=ONE_EPOCH, scale_features=False)

#: Classifier factories by name; the last is the resilient ladder forced
#: onto its classical logistic-regression rung (a gemv, not a gemm).
CLASSIFIERS = {
    "light": lambda: LeapmeClassifier(LIGHT),
    "light-unscaled": lambda: LeapmeClassifier(UNSCALED),
    "paper": lambda: LeapmeClassifier(PAPER),
    "classical-fallback": lambda: ResilientClassifier(
        LIGHT, primary_factory=AlwaysDivergingClassifier
    ),
}


def _whole_matrix_scores(classifier, features: np.ndarray) -> np.ndarray:
    """The score formula before blocking: one pass over the whole matrix.

    The classical rung has no network; its scores are taken block by
    block, the way ``score_pairs`` feeds it.
    """
    if isinstance(classifier, ResilientClassifier):
        return np.concatenate(
            [
                classifier.match_scores(features[start:stop])
                for start, stop in row_blocks(len(features))
            ]
        )
    state = classifier.fitted_state()
    if state.scaler is None:
        return state.network.predict_proba(np.asarray(features, dtype=np.float64))[:, 1]
    return state.network.predict_proba(state.scaler.transform(features))[:, 1]


def _cell(dataset, universe, fraction: float):
    split = split_sources(dataset, fraction, np.random.default_rng(3))
    train = list(split.train_sources)
    training = sample_training_pairs(
        universe.subset(train, within=True), 2.0, np.random.default_rng([3, 0, 1709])
    )
    return training, universe.subset(train, within=False)


@pytest.fixture(scope="module")
def headphones():
    """Headphones at the small scale: 7,104 pairs, enough for every size."""
    dataset = load_dataset("headphones", scale="small", seed=0)
    embeddings = build_domain_embeddings("headphones", scale="small")
    return dataset, embeddings, PairFeatureStore.build(dataset, embeddings)


def _matcher(headphones, config: FeatureConfig, kind: str) -> LeapmeMatcher:
    dataset, embeddings, store = headphones
    matcher = LeapmeMatcher(
        embeddings, feature_config=config, classifier_factory=CLASSIFIERS[kind]
    )
    matcher.attach_store(store)
    training, _ = _cell(dataset, store.universe, 0.8)
    matcher.fit(dataset, training)
    return matcher


@pytest.mark.parametrize("kind", list(CLASSIFIERS))
@pytest.mark.parametrize("config", FeatureConfig.grid(), ids=FeatureConfig.label)
def test_blocked_scores_equal_whole_matrix_scores(headphones, config, kind):
    dataset, _, store = headphones
    matcher = _matcher(headphones, config, kind)
    assert (matcher.last_degradation is not None) == (kind == "classical-fallback")
    order = np.random.default_rng(7).permutation(len(store.universe))
    for n in SIZES:
        pairs = store.universe.subset().select(order[:n])
        blocked = matcher.score_pairs(dataset, pairs)
        whole = _whole_matrix_scores(matcher.classifier, store.features(pairs, config))
        assert blocked.shape == (n,)
        assert np.array_equal(blocked, whole), f"{kind} scores changed at n={n}"


def test_classifier_blocks_equal_whole_matrix_scores(headphones):
    """``match_scores`` on a caller's whole matrix blocks it the same way."""
    _, _, store = headphones
    matcher = _matcher(headphones, FeatureConfig(), "paper")
    pairs = store.universe.subset().select(np.arange(3 * ROW_BLOCK + 5))
    features = store.features(pairs, FeatureConfig())
    assert np.array_equal(
        matcher.classifier.match_scores(features),
        _whole_matrix_scores(matcher.classifier, features),
    )


def test_scoring_time_splits_into_gather_and_forward(headphones):
    """Block gathers count as feature assembly, not as scoring."""
    dataset, _, store = headphones
    matcher = _matcher(headphones, FeatureConfig(), "light")
    _, test = _cell(dataset, store.universe, 0.2)
    assert len(test) > ROW_BLOCK
    before = matcher.feature_seconds
    matcher.score_pairs(dataset, test)
    assert matcher.feature_seconds > before
    result = evaluate_matcher(
        matcher, dataset, RunSettings(train_fraction=0.2, repetitions=1)
    )
    assert result.timings.feature_assembly > 0.0
    assert result.timings.score > 0.0


def test_pruned_pairs_are_looked_up_once(monkeypatch):
    """Pairs a blocked universe pruned resolve in one pass over their ends."""
    dataset = load_dataset("headphones", scale="tiny", seed=0)
    embeddings = build_domain_embeddings("headphones", scale="tiny")
    store = PairFeatureStore.build(
        dataset, embeddings, policy=CandidatePolicy.from_label("minhash")
    )
    matcher = LeapmeMatcher(embeddings, config=LIGHT)
    matcher.attach_store(store)
    training, _ = _cell(dataset, store.universe, 0.8)
    matcher.fit(dataset, training)
    pairs = build_pairs(dataset)
    kept = {pair.key for pair in store.universe.pairs}
    assert any(pair.key not in kept for pair in pairs)
    lookups = []
    original = PairFeatureStore._resolve

    def counted(self, requested):
        lookups.append(len(requested))
        return original(self, requested)

    monkeypatch.setattr(PairFeatureStore, "_resolve", counted)
    scores = matcher.score_pairs(dataset, pairs)
    assert lookups == [len(pairs)]
    direct = direct_pair_matrix(store.table, pairs.pairs, FeatureConfig())
    assert np.array_equal(scores, matcher.classifier.match_scores(direct))


@pytest.fixture(scope="module")
def cameras():
    """Cameras at the small scale: 75,478 pairs by 165 columns."""
    dataset = load_dataset("cameras", scale="small", seed=0)
    embeddings = build_domain_embeddings("cameras", scale="small")
    return dataset, embeddings, PairFeatureStore.build(dataset, embeddings)


def test_engine_cell_scoring_never_holds_a_whole_matrix(cameras):
    """A cameras 0.2-fraction test set scores block by block.

    As one float64 matrix the set would take 96 MB; blocked scoring
    holds one gathered block, one scratch block and the score vector.
    """
    dataset, embeddings, store = cameras
    matcher = LeapmeMatcher(embeddings, config=LIGHT)
    matcher.attach_store(store)
    training, test = _cell(dataset, store.universe, 0.2)
    matcher.fit(dataset, training)
    whole_bytes = len(test) * store.schema.width(FeatureConfig()) * 8
    tracemalloc.start()
    try:
        scores = matcher.score_pairs(dataset, test)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert scores.shape == (len(test),)
    assert peak < whole_bytes / 10, f"peak {peak} B of a {whole_bytes} B matrix"


@pytest.mark.parametrize("config", FeatureConfig.grid(), ids=FeatureConfig.label)
def test_paper_network_past_the_small_matrix_cutoff(cameras, config):
    """Where whole-matrix scoring changed BLAS kernels, blocks do not.

    With more than 7,812 rows the paper network's 64 -> 2 head passes
    OpenBLAS's small-matrix cutoff (M*N*K <= 1e6), and the whole-matrix
    product rounds differently in the last bits; every block stays
    under it.  Scores may differ there by a few dozen ulp, but no
    decision flips.
    """
    dataset, embeddings, store = cameras
    matcher = LeapmeMatcher(embeddings, config=PAPER, feature_config=config)
    matcher.attach_store(store)
    training, test = _cell(dataset, store.universe, 0.2)
    matcher.fit(dataset, training)
    blocked = matcher.score_pairs(dataset, test)
    whole = _whole_matrix_scores(matcher.classifier, store.features(test, config))
    np.testing.assert_allclose(blocked, whole, rtol=1e-12, atol=0.0)
    assert np.array_equal(blocked >= 0.5, whole >= 0.5)
