"""Every baseline equals its per-pair oracle, bit for bit, on every request.

The baselines read a request as property-row indices and score each
distinct name pair once; ``tests/baselines/oracle.py`` keeps the
per-pair walks they replaced.  On every tiny dataset, each baseline is
compared with its oracle by ``np.array_equal`` on:

* the own-universe ``build_pairs`` set;
* a subset of a minhash-blocked universe;
* a ``LabeledPair`` list in reversed orientation;
* a list holding refs foreign to the dataset, named in camelCase and
  in its lowercase spelling, which ``words`` and ``token_set`` split
  differently (LSH raises on foreign refs, as its oracle does);

and SemProp also with ``reciprocal_best=True``.  Nezhadi's features go
through the process-wide distance memo, so it is compared with a cold
memo, a warm one and one that evicts under a lowered cap.
"""

import re

import numpy as np
import pytest

import repro.core.pipeline as pipeline_module
from repro.baselines import (
    AmlMatcher,
    FcaMapMatcher,
    LshMatcher,
    NezhadiMatcher,
    SemPropMatcher,
)
from repro.blocking.policy import CandidatePolicy
from repro.core.feature_cache import PairUniverse
from repro.core.pipeline import clear_distance_memo
from repro.data.model import PropertyRef
from repro.data.pairs import LabeledPair, build_pairs, sample_training_pairs
from repro.datasets import build_domain_embeddings, load_dataset
from tests.baselines.oracle import (
    AmlOracle,
    FcaMapOracle,
    LshOracle,
    NezhadiOracle,
    SemPropOracle,
)

DOMAINS = ("headphones", "cameras", "phones", "tvs")
REQUESTS = ("own", "blocked", "reversed", "foreign")

#: baseline -> (new matcher, oracle), each built from the embeddings.
BASELINES = {
    "AML": lambda embeddings: (AmlMatcher(), AmlOracle()),
    "FCA-Map": lambda embeddings: (FcaMapMatcher(), FcaMapOracle()),
    "LSH": lambda embeddings: (LshMatcher(), LshOracle()),
    "SemProp": lambda embeddings: (
        SemPropMatcher(embeddings),
        SemPropOracle(embeddings),
    ),
    "SemProp[reciprocal]": lambda embeddings: (
        SemPropMatcher(embeddings, reciprocal_best=True),
        SemPropOracle(embeddings, reciprocal_best=True),
    ),
}


@pytest.fixture(scope="module", params=DOMAINS)
def domain(request):
    dataset = load_dataset(request.param, scale="tiny", seed=0)
    return dataset, build_domain_embeddings(request.param, scale="tiny")


def _camel_case(name):
    first, *rest = re.split(r"[\s_\-]+", name)
    return first + "".join(word.capitalize() for word in rest)


def _request(dataset, kind):
    """The pairs of one request kind over ``dataset``."""
    if kind == "own":
        return build_pairs(dataset)
    if kind == "blocked":
        universe = PairUniverse(dataset, CandidatePolicy.from_label("minhash"))
        return universe.subset(dataset.sources()[:2], within=False)
    pairs = build_pairs(dataset).pairs
    if kind == "reversed":
        return [LabeledPair(pair.right, pair.left, pair.label) for pair in pairs]
    foreign = []
    for pair in pairs[::7]:
        camel = _camel_case(pair.left.name)
        stranger = PropertyRef("elsewhere", camel)
        foreign += [
            pair,
            LabeledPair(stranger, pair.right, False),
            LabeledPair(pair.left, PropertyRef("elsewhere", camel.lower()), False),
            LabeledPair(PropertyRef("yonder", pair.right.name.upper()), stranger, False),
        ]
    return foreign


@pytest.mark.parametrize("kind", REQUESTS)
@pytest.mark.parametrize("baseline", list(BASELINES))
def test_unsupervised_baseline_equals_its_oracle(domain, baseline, kind):
    dataset, embeddings = domain
    matcher, oracle = BASELINES[baseline](embeddings)
    pairs = _request(dataset, kind)
    if baseline == "LSH" and kind == "foreign":
        with pytest.raises(KeyError):
            oracle.score_pairs(dataset, pairs)
        with pytest.raises(KeyError):
            matcher.score_pairs(dataset, pairs)
        return
    expected = oracle.score_pairs(dataset, pairs)
    scores = matcher.score_pairs(dataset, pairs)
    assert scores.dtype == expected.dtype
    assert np.array_equal(scores, expected)


@pytest.fixture(scope="module")
def nezhadi_oracle(domain):
    """The oracle fitted once per domain, with its training sample."""
    dataset, _ = domain
    training = sample_training_pairs(build_pairs(dataset), rng=np.random.default_rng(5))
    oracle = NezhadiOracle()
    oracle.fit(dataset, training)
    return oracle, training


@pytest.mark.parametrize("memo", ["cold", "warm", "evicting"])
@pytest.mark.parametrize("kind", REQUESTS)
def test_nezhadi_equals_its_oracle(domain, nezhadi_oracle, kind, memo, monkeypatch):
    dataset, _ = domain
    oracle, training = nezhadi_oracle
    pairs = _request(dataset, kind)
    clear_distance_memo()
    if memo == "warm":
        NezhadiMatcher._features(pairs)
        NezhadiMatcher._features(training)
    elif memo == "evicting":
        monkeypatch.setattr(pipeline_module, "_DISTANCE_MEMO_CAP", 16)
    matcher = NezhadiMatcher()
    matcher.fit(dataset, training)
    assert np.array_equal(
        matcher._features(pairs), oracle.features(list(pairs))
    )
    assert np.array_equal(
        matcher.score_pairs(dataset, pairs), oracle.score_pairs(dataset, pairs)
    )
    if memo == "evicting":
        assert len(pipeline_module._DISTANCE_CACHE) <= 16
    clear_distance_memo()
