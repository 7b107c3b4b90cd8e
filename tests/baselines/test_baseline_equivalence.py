"""Every baseline equals its per-pair oracle, bit for bit, on every request.

The baselines read a request as property-row indices and score each
distinct name pair once; ``tests/baselines/oracle.py`` keeps the
per-pair walks they replaced.  On every tiny dataset, each baseline is
compared with its oracle by ``np.array_equal`` on:

* the own-universe ``build_pairs`` set;
* a subset of a minhash-blocked universe;
* an explicit pair set in reversed orientation;
* an explicit set over the dataset merged with sources whose
  properties are named in camelCase and in its lowercase spelling,
  which ``words`` and ``token_set`` split differently;

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
from repro.data.model import Dataset, PropertyInstance, PropertyRef
from repro.data.pairs import build_pairs, explicit_pairs, sample_training_pairs
from repro.datasets import build_domain_embeddings, load_dataset
from tests.conftest import pair_request
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
    """The pairs of one request kind; its dataset is ``pairs.universe.dataset``."""
    if kind == "own":
        return build_pairs(dataset)
    if kind == "blocked":
        universe = PairUniverse(dataset, CandidatePolicy.from_label("minhash"))
        return universe.subset(dataset.sources()[:2], within=False)
    if kind == "reversed":
        left, right = build_pairs(dataset).universe.ends()
        return explicit_pairs(dataset, right, left)
    # Sources "elsewhere" and "yonder" respell the dataset's names, each
    # property holding the values of the one it respells.
    pairs, copies, mixed = build_pairs(dataset).pairs[::7], {}, []
    for pair in pairs:
        camel = _camel_case(pair.left.name)
        stranger = PropertyRef("elsewhere", camel)
        lowered = PropertyRef("elsewhere", camel.lower())
        shouting = PropertyRef("yonder", pair.right.name.upper())
        for ref, original in (
            (stranger, pair.left),
            (lowered, pair.left),
            (shouting, pair.right),
        ):
            copies.setdefault(ref, original)
        mixed += [
            (pair.left, pair.right),
            (stranger, pair.right),
            (pair.left, lowered),
            (shouting, stranger),
        ]
    addition = Dataset(
        "respelled",
        [
            PropertyInstance(ref.source, ref.name, instance.entity_id, instance.value)
            for ref, original in copies.items()
            for instance in dataset.instances_of(original)
        ],
    )
    return pair_request(dataset.merged_with(addition), mixed)


@pytest.mark.parametrize("kind", REQUESTS)
@pytest.mark.parametrize("baseline", list(BASELINES))
def test_unsupervised_baseline_equals_its_oracle(domain, baseline, kind):
    matcher, oracle = BASELINES[baseline](domain[1])
    pairs = _request(domain[0], kind)
    dataset = pairs.universe.dataset
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
    oracle, training = nezhadi_oracle
    pairs = _request(domain[0], kind)
    dataset = pairs.universe.dataset
    clear_distance_memo()
    if memo == "warm":
        NezhadiMatcher._features(pairs)
        NezhadiMatcher._features(training)
    elif memo == "evicting":
        monkeypatch.setattr(pipeline_module, "_DISTANCE_MEMO_CAP", 16)
    matcher = NezhadiMatcher()
    matcher.fit(domain[0], training)
    assert np.array_equal(
        matcher._features(pairs), oracle.features(list(pairs))
    )
    assert np.array_equal(
        matcher.score_pairs(dataset, pairs), oracle.score_pairs(dataset, pairs)
    )
    if memo == "evicting":
        assert len(pipeline_module._DISTANCE_CACHE) <= 16
    clear_distance_memo()
