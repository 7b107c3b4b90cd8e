"""Golden curves: active learning and transfer on tiny datasets.

``run_active_learning`` is pinned by the exact F1 tuple of each
(matcher, strategy) curve on tiny headphones: the seed pool, every
uncertainty batch and every random pick feed the fits that make the
curve, so a change to the pool's pair order, to the rows a labelled set
selects or to a matcher's scores moves a value.  ``run_transfer_experiment``
is pinned by the TP/FP/FN of one headphones -> phones run.

The LEAPME values come from a light network and hold for one
floating-point environment; the Nezhadi curves are exact.
"""

import numpy as np
import pytest

from repro.baselines import NezhadiMatcher
from repro.core import LeapmeConfig, LeapmeMatcher
from repro.data.pairs import build_pairs
from repro.data.splits import split_sources
from repro.datasets import build_domain_embeddings, load_dataset
from repro.evaluation import run_transfer_experiment
from repro.evaluation.active import run_active_learning
from repro.nn.schedule import TrainingSchedule

LIGHT = LeapmeConfig(hidden_sizes=(16,), schedule=TrainingSchedule.constant(8, 1e-2))

BUDGETS = [10, 30, 50]

MATCHERS = {
    "LEAPME": lambda embeddings: LeapmeMatcher(embeddings, config=LIGHT),
    "Nezhadi": lambda embeddings: NezhadiMatcher(),
}

#: (matcher, strategy) -> F1 at each of ``BUDGETS``.
CURVES = {
    ("LEAPME", "uncertainty"): (
        0.5116279069767442,
        0.7619047619047619,
        0.838095238095238,
    ),
    ("LEAPME", "random"): (
        0.5116279069767442,
        0.6991869918699187,
        0.7563025210084034,
    ),
    ("Nezhadi", "uncertainty"): (
        0.1064935064935065,
        0.11611030478955008,
        0.31645569620253167,
    ),
    ("Nezhadi", "random"): (
        0.1064935064935065,
        0.39694656488549623,
        0.5348837209302325,
    ),
}

#: headphones -> phones with a light LEAPME: (tp, fp, fn).
TRANSFER = (58, 76, 0)


@pytest.mark.parametrize(("system", "strategy"), list(CURVES))
def test_active_learning_curves_are_pinned(
    system, strategy, tiny_headphones, tiny_embeddings
):
    rng = np.random.default_rng([7, 31])
    split = split_sources(tiny_headphones, 0.6, rng)
    train = list(split.train_sources)
    curve = run_active_learning(
        MATCHERS[system](tiny_embeddings),
        tiny_headphones,
        build_pairs(tiny_headphones, train, within=True),
        build_pairs(tiny_headphones, train, within=False),
        budgets=BUDGETS,
        strategy=strategy,
        rng=rng,
    )
    assert curve.budgets == tuple(BUDGETS)
    assert curve.f1_scores == CURVES[(system, strategy)]


def test_transfer_experiment_is_pinned(tiny_headphones):
    phones = load_dataset("phones", scale="tiny", seed=0)
    embeddings = build_domain_embeddings(["headphones", "phones"], scale="tiny")
    result = run_transfer_experiment(
        LeapmeMatcher(embeddings, config=LIGHT), tiny_headphones, phones, seed=3
    )
    quality = result.quality
    counts = (quality.true_positives, quality.false_positives, quality.false_negatives)
    assert counts == TRANSFER
