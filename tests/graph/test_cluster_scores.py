"""The clusterer's linkage scores equal the object-loop oracle exactly.

On tiny headphones, source by source, the reduced (new property ×
cluster) scores of :meth:`IncrementalClusterer._cluster_scores` must
``==`` those of ``tests/graph/oracle.py``, and a clusterer driven by
the oracle must end every step with the same clusters.  The LEAPME
network is a light one.  LEAPME and SemProp score a pair and its
reverse alike on this data, so a matcher that scores the left name's
share of both names' length checks that the (new, existing)
orientation is kept.
"""

import numpy as np
import pytest

from repro.baselines.semprop import SemPropMatcher
from repro.core import LeapmeConfig, LeapmeMatcher
from repro.core.api import Matcher
from repro.data.pairs import build_pairs, sample_training_pairs
from repro.graph.incremental import IncrementalClusterer
from repro.nn.schedule import TrainingSchedule

from tests.graph.oracle import cluster_scores


class LeftShareMatcher(Matcher):
    """Orientation-sensitive: the left name's share of both names' length."""

    name = "left-share"

    def score_pairs(self, dataset, pairs):
        return np.array(
            [len(p.left.name) / (len(p.left.name) + len(p.right.name)) for p in pairs]
        )


class OracleClusterer(IncrementalClusterer):
    """A clusterer whose linkage scores come from the oracle loop."""

    def _cluster_scores(self, new_refs):
        return cluster_scores(self, new_refs)


@pytest.fixture(scope="module")
def leapme(tiny_headphones, tiny_embeddings):
    matcher = LeapmeMatcher(
        tiny_embeddings,
        config=LeapmeConfig(
            hidden_sizes=(16,),
            schedule=TrainingSchedule.constant(4, 1e-2),
            seed=3,
        ),
    )
    training = sample_training_pairs(build_pairs(tiny_headphones))
    matcher.fit(tiny_headphones, training)
    return matcher


@pytest.fixture(scope="module")
def semprop(tiny_embeddings):
    return SemPropMatcher(tiny_embeddings)


@pytest.fixture(scope="module")
def left_share():
    return LeftShareMatcher()


@pytest.mark.parametrize("linkage", ["max", "average"])
@pytest.mark.parametrize("system", ["leapme", "semprop", "left_share"])
def test_scores_and_clusters_match_the_oracle(
    request, tiny_headphones, system, linkage
):
    matcher = request.getfixturevalue(system)
    clusterer = IncrementalClusterer(matcher, tiny_headphones, linkage=linkage)
    oracle = OracleClusterer(matcher, tiny_headphones, linkage=linkage)
    compared = 0
    for source in tiny_headphones.sources():
        if clusterer._clusters:
            new_refs = tiny_headphones.properties(source)
            reduced = clusterer._cluster_scores(new_refs)
            assert reduced == cluster_scores(clusterer, new_refs)
            assert list(reduced) == new_refs
            compared += sum(score >= 0 for row in reduced.values() for score in row)
        assert clusterer.add_source(source) == oracle.add_source(source)
        assert clusterer._clusters == oracle._clusters
    assert compared > 0
