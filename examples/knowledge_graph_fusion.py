"""Knowledge-graph property fusion: match, build the similarity graph,
cluster equivalent properties, and fuse their instances.

This is the downstream scenario motivating the paper (Section I): when
integrating many shop sources into a product knowledge graph, matching
properties must be found and *fused* so the KG has one canonical
"resolution" attribute rather than 24 differently-named copies.  The
clustering step implements the paper's stated future work (Section VI).

Run:  python examples/knowledge_graph_fusion.py
"""

from __future__ import annotations

import numpy as np

from repro import (
    LeapmeMatcher,
    build_domain_embeddings,
    build_pairs,
    cluster_connected_components,
    cluster_correlation,
    cluster_star,
    clustering_metrics,
    fuse_clusters,
    load_dataset,
    sample_training_pairs,
    split_sources,
)


def main() -> None:
    rng = np.random.default_rng(7)
    dataset = load_dataset("phones", scale="small")
    embeddings = build_domain_embeddings("phones", scale="small")

    # Train on most sources, then match EVERY cross-source pair to build
    # the integration-time similarity graph.
    split = split_sources(dataset, train_fraction=0.8, rng=rng)
    training = sample_training_pairs(
        build_pairs(dataset, list(split.train_sources), within=True), rng=rng
    )
    matcher = LeapmeMatcher(embeddings)
    matcher.fit(dataset, training)

    all_pairs = build_pairs(dataset)
    graph = matcher.match(dataset, all_pairs)
    print(f"similarity graph: {len(graph)} scored pairs, "
          f"{len(graph.matches(0.5))} matches at threshold 0.5\n")

    # Compare the three clustering strategies on pairwise quality.
    strategies = {
        "connected components": cluster_connected_components,
        "star": cluster_star,
        "correlation (greedy pivot)": cluster_correlation,
    }
    best_name, best_clusters, best_f1 = None, None, -1.0
    for name, strategy in strategies.items():
        clusters = strategy(graph, threshold=0.5)
        multi = [c for c in clusters if len(c) > 1]
        quality = clustering_metrics(clusters, dataset)
        print(
            f"{name:<28} clusters={len(multi):>3} "
            f"P={quality.precision:.2f} R={quality.recall:.2f} F1={quality.f1:.2f}"
        )
        if quality.f1 > best_f1:
            best_name, best_clusters, best_f1 = name, clusters, quality.f1

    # Fuse the best clustering into canonical KG attributes.
    print(f"\nfusing with: {best_name}")
    fused = fuse_clusters(dataset, best_clusters, strategy="majority")
    print(f"{len(fused)} canonical attributes spanning >= 2 sources; largest:")
    for attribute in fused[:6]:
        samples = list(attribute.values.values())[:4]
        print(f"  {attribute.describe()}  e.g. {samples}")


if __name__ == "__main__":
    main()
