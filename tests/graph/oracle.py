"""The object loop the clusterer's array scoring is tested against.

:meth:`repro.graph.incremental.IncrementalClusterer._cluster_scores`
once built one :class:`LabeledPair` per (new, existing) cross-source
pair, scored the list and reduced each cluster's scores in pair order.
That loop is kept here, arithmetic unchanged, as the oracle that
``tests/graph/test_cluster_scores.py`` compares the clusterer with.
"""

from __future__ import annotations

import numpy as np

from repro.data.model import PropertyRef
from repro.data.pairs import LabeledPair

from tests.conftest import pair_request


def cluster_scores(
    clusterer, new_refs: list[PropertyRef]
) -> dict[PropertyRef, list[float]]:
    """Per-new-property linkage score against every existing cluster."""
    existing: list[PropertyRef] = [
        ref for cluster in clusterer._clusters for ref in cluster
    ]
    cluster_of: dict[PropertyRef, int] = {}
    for index, cluster in enumerate(clusterer._clusters):
        for ref in cluster:
            cluster_of[ref] = index
    pairs = [
        LabeledPair(new, old, False)
        for new in new_refs
        for old in existing
        if old.source != new.source
    ]
    scores_by_ref: dict[PropertyRef, list[list[float]]] = {
        ref: [[] for _ in clusterer._clusters] for ref in new_refs
    }
    if pairs:
        scores = clusterer.matcher.score_pairs(
            clusterer.dataset, pair_request(clusterer.dataset, pairs)
        )
        for pair, score in zip(pairs, scores):
            scores_by_ref[pair.left][cluster_of[pair.right]].append(float(score))
    reduced: dict[PropertyRef, list[float]] = {}
    for ref, per_cluster in scores_by_ref.items():
        row = []
        for cluster_scores in per_cluster:
            if not cluster_scores:
                row.append(-1.0)
            elif clusterer.linkage == "max":
                row.append(max(cluster_scores))
            else:
                row.append(float(np.mean(cluster_scores)))
        reduced[ref] = row
    return reduced
