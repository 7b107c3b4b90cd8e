"""Extension C: property clustering from the similarity graph.

Section VI names "deriving clusters of equivalent properties from the
match results" as the planned next step.  This bench scores the three
implemented clustering strategies on the similarity graph produced by a
trained LEAPME matcher.  Expected shape: star / correlation clustering
trade a little recall for substantially better precision than raw
connected components (which chain matching errors together).
"""

from __future__ import annotations

import numpy as np
from conftest import STRICT_SHAPE, bench_dataset, bench_embeddings, run_once

from repro.core import LeapmeMatcher
from repro.data.pairs import build_pairs, sample_training_pairs
from repro.data.splits import split_sources
from repro.graph import (
    cluster_connected_components,
    cluster_correlation,
    cluster_star,
    clustering_metrics,
)

STRATEGIES = {
    "components": cluster_connected_components,
    "star": cluster_star,
    "correlation": cluster_correlation,
}


def test_bench_clustering_strategies(benchmark):
    dataset = bench_dataset("phones")
    embeddings = bench_embeddings("phones")
    rng = np.random.default_rng(0)
    split = split_sources(dataset, 0.8, rng)
    training = sample_training_pairs(
        build_pairs(dataset, list(split.train_sources), within=True), rng=rng
    )
    matcher = LeapmeMatcher(embeddings)
    matcher.fit(dataset, training)
    graph = matcher.match(dataset, build_pairs(dataset))

    def run():
        return {
            name: clustering_metrics(strategy(graph, 0.5), dataset)
            for name, strategy in STRATEGIES.items()
        }

    qualities = run_once(benchmark, run)
    print("\nproperty clustering from the LEAPME similarity graph (phones):")
    for name, quality in qualities.items():
        print(
            f"  {name:<12} P={quality.precision:.2f} "
            f"R={quality.recall:.2f} F1={quality.f1:.2f}"
        )
        benchmark.extra_info[f"f1_{name}"] = round(quality.f1, 3)

    if not STRICT_SHAPE:
        return  # tiny smoke scale: execution only
    # Error-chain splitting: the selective strategies must not be less
    # precise than connected components.
    assert qualities["star"].precision >= qualities["components"].precision - 0.02
    assert qualities["correlation"].precision >= qualities["components"].precision - 0.02
    # And everything should produce usable clusters.
    for name, quality in qualities.items():
        assert quality.f1 > 0.4, f"{name}: F1={quality.f1:.2f}"
