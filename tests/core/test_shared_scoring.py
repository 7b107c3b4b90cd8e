"""One score pass for several matchers must score like each one alone.

``repro.core.matcher.score_together`` gathers each row block once over
the union of its members' columns, and
``repro.core.classifier.blocked_scores`` scales it once for every
member whose scaler agrees on the columns it reads; each network then
reads its own columns from that block as a view.  The oracle is the
whole-matrix formula of ``test_blocked_scoring.py``: every member's
scores must equal it bit for bit, for all nine configs (the index-array
config ``both/non_embedding`` included), every classifier kind, and
sizes on both sides of each block boundary.  A forward pass over a
strided column view is not promised by BLAS to round like one over a
contiguous copy, so that is pinned here too.
"""

import numpy as np
import pytest

from repro.blocking import CandidatePolicy
from repro.core import FeatureConfig, LeapmeMatcher, PairFeatureStore
from repro.core import classifier as classifier_module
from repro.core.classifier import scoring_state
from repro.core.matcher import score_together
from repro.data.pairs import build_pairs, sample_training_pairs
from repro.data.splits import split_sources
from repro.nn.network import ROW_BLOCK

from tests.conftest import pair_request
from tests.core.test_blocked_scoring import (  # noqa: F401 -- shared fixture
    CLASSIFIERS,
    SIZES,
    _cell,
    _whole_matrix_scores,
    headphones,
)

GRID = FeatureConfig.grid()


def _fitted(headphones, config: FeatureConfig, kind: str, training) -> LeapmeMatcher:
    dataset, embeddings, store = headphones
    matcher = LeapmeMatcher(
        embeddings, feature_config=config, classifier_factory=CLASSIFIERS[kind]
    )
    matcher.attach_store(store)
    matcher.fit(dataset, training)
    return matcher


@pytest.fixture(scope="module")
def members(headphones):
    """Every (kind, config) matcher, all fitted on one 0.8-fraction sample."""
    dataset, _, store = headphones
    training, _ = _cell(dataset, store.universe, 0.8)
    return {
        (kind, config.label()): _fitted(headphones, config, kind, training)
        for kind in CLASSIFIERS
        for config in GRID
    }


def _assert_oracle(store, matchers, pairs, scores):
    for matcher, got in zip(matchers, scores):
        whole = _whole_matrix_scores(
            matcher.classifier, store.features(pairs, matcher.feature_config)
        )
        assert got.shape == (len(pairs),)
        assert np.array_equal(got, whole), (
            f"{matcher.name} changed at n={len(pairs)}"
        )


@pytest.mark.parametrize("kind", list(CLASSIFIERS))
def test_one_pass_over_nine_configs_equals_whole_matrix_scores(
    headphones, members, kind
):
    dataset, _, store = headphones
    matchers = [members[(kind, config.label())] for config in GRID]
    order = np.random.default_rng(7).permutation(len(store.universe))
    for n in SIZES:
        pairs = store.universe.subset().select(order[:n])
        _assert_oracle(store, matchers, pairs, score_together(matchers, dataset, pairs))


def test_mixed_kinds_in_one_pass_equal_whole_matrix_scores(headphones, members):
    """Scaled, unscaled and classical members share one gather."""
    dataset, _, store = headphones
    matchers = list(members.values())
    _, test = _cell(dataset, store.universe, 0.2)
    assert len(test) > 2 * 2048
    _assert_oracle(
        store, matchers, test, score_together(matchers, dataset, test)
    )


@pytest.mark.parametrize("kind", ["light", "classical-fallback"])
def test_one_pass_over_pruned_pairs_equals_each_lone_score(headphones, kind):
    """Pairs a blocked universe pruned join the shared pass too.

    An explicit set of pruned pairs and a ``build_pairs`` set (rows of
    another universe, pruned pairs among them) score in one pass over
    nine configs; every member equals its own ``score_pairs``.
    """
    dataset, embeddings, _ = headphones
    store = PairFeatureStore.build(
        dataset, embeddings, policy=CandidatePolicy.from_label("minhash")
    )
    training, _ = _cell(dataset, store.universe, 0.8)
    matchers = [
        _fitted((dataset, embeddings, store), config, kind, training)
        for config in GRID
    ]
    everything = build_pairs(dataset)
    kept = {pair.key for pair in store.universe.pairs}
    pruned = pair_request(
        dataset, [pair for pair in everything.pairs if pair.key not in kept]
    )
    assert len(pruned) > ROW_BLOCK
    for pairs in (pruned, everything):
        shared = score_together(matchers, dataset, pairs)
        for matcher, got in zip(matchers, shared):
            assert np.array_equal(got, matcher.score_pairs(dataset, pairs)), (
                f"{matcher.name} changed over {len(pairs)} pairs"
            )


def _count_blocks(monkeypatch) -> list:
    made = []
    original = classifier_module._ScaledBlock.__init__

    def counted(self, rows, width, scaled):
        made.append(scaled)
        original(self, rows, width, scaled)

    monkeypatch.setattr(classifier_module._ScaledBlock, "__init__", counted)
    return made


def test_configs_fitted_on_one_sample_share_one_block(
    headphones, members, monkeypatch
):
    """Nine scalers fitted on one sample agree on every shared column."""
    dataset, _, store = headphones
    matchers = [members[("light", config.label())] for config in GRID]
    made = _count_blocks(monkeypatch)
    _, test = _cell(dataset, store.universe, 0.8)
    score_together(matchers, dataset, test)
    assert made == [True]


def test_members_fitted_on_different_samples_get_their_own_blocks(
    headphones, monkeypatch
):
    dataset, _, store = headphones
    config = FeatureConfig()
    matchers = []
    for seed in (3, 4):
        split = split_sources(dataset, 0.8, np.random.default_rng(seed))
        training = sample_training_pairs(
            store.universe.subset(list(split.train_sources), within=True),
            2.0,
            np.random.default_rng([seed, 0, 1709]),
        )
        matchers.append(_fitted(headphones, config, "light", training))
    scalers = [scoring_state(m.classifier).scaler for m in matchers]
    assert not np.array_equal(scalers[0].mean_, scalers[1].mean_)
    made = _count_blocks(monkeypatch)
    order = np.random.default_rng(11).permutation(len(store.universe))
    pairs = store.universe.subset().select(order[: SIZES[-1]])
    scores = score_together(matchers, dataset, pairs)
    assert made == [True, True]
    _assert_oracle(store, matchers, pairs, scores)


@pytest.mark.parametrize("kind", ["light", "paper"])
def test_forward_over_a_column_view_equals_a_contiguous_copy(
    headphones, members, kind
):
    """What the shared pass relies on, pinned on this BLAS."""
    dataset, _, store = headphones
    _, test = _cell(dataset, store.universe, 0.8)
    rows = test.rows[:2048]
    scaled = np.random.default_rng(5).standard_normal(
        (len(rows), store.schema.total_width)
    )
    for config in GRID:
        columns = store.schema.active_columns(config)
        view = scaled[:, columns]
        network = scoring_state(members[(kind, config.label())].classifier).network
        assert np.array_equal(
            network.predict_proba(view), network.predict_proba(np.ascontiguousarray(view))
        ), config.label()
