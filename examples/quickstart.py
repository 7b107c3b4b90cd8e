"""Quickstart: match camera properties across sources with LEAPME.

Mirrors the paper's running example (Fig. 1): several shop sources
describe the same cameras with differently-named properties; LEAPME
learns to match them from a fraction of the sources.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

import numpy as np

from repro import (
    LeapmeMatcher,
    build_domain_embeddings,
    build_pairs,
    dataset_stats,
    evaluate_scores,
    load_dataset,
    sample_training_pairs,
    split_sources,
)


def show_figure1_style_sample(dataset, n_sources: int = 3) -> None:
    """Print a few sources' schemas with their ground-truth alignment."""
    print("Heterogeneous property names across sources (cf. paper Fig. 1):")
    for source in dataset.sources()[:n_sources]:
        print(f"\n  {source}:")
        for ref in dataset.properties(source)[:6]:
            reference = dataset.reference_of(ref) or "(unaligned)"
            value = dataset.values_of(ref)[0]
            print(f"    {ref.name:<28} = {value:<16} -> {reference}")


def main() -> None:
    rng = np.random.default_rng(0)

    # 1. Load a multi-source product dataset and train domain embeddings
    #    (the offline substitute for pre-trained GloVe).
    dataset = load_dataset("cameras", scale="small")
    print(dataset_stats(dataset).describe())
    embeddings = build_domain_embeddings("cameras", scale="small")
    print(f"embeddings: {len(embeddings)} words x {embeddings.dimension} dims\n")

    show_figure1_style_sample(dataset)

    # 2. Hold out 20% of the sources for training, as in the paper.
    split = split_sources(dataset, train_fraction=0.2, rng=rng)
    print(f"\ntraining sources: {', '.join(split.train_sources)}")
    training = sample_training_pairs(
        build_pairs(dataset, list(split.train_sources), within=True),
        negative_ratio=2.0,
        rng=rng,
    )
    test = build_pairs(dataset, list(split.train_sources), within=False)
    print(f"training pairs: {len(training)} ({len(training.positives())} positive)")
    print(f"test pairs:     {len(test)} ({len(test.positives())} positive)")

    # 3. Train LEAPME and classify every unseen cross-source pair.
    matcher = LeapmeMatcher(embeddings)
    matcher.prepare(dataset)
    matcher.fit(dataset, training)
    scores = matcher.score_pairs(dataset, test)

    quality = evaluate_scores(scores, test.labels())
    print(
        f"\nLEAPME on held-out sources: precision={quality.precision:.2f} "
        f"recall={quality.recall:.2f} F1={quality.f1:.2f}"
    )

    # 4. Show a few confident matches the classifier found.
    print("\nTop predicted matches:")
    top = np.argsort(-scores)[:8]
    for pair, score in zip(test.take(top), scores[top]):
        marker = "+" if pair.label else "-"
        print(
            f"  [{marker}] {score:.2f}  "
            f"{pair.left.source}::{pair.left.name}  <->  "
            f"{pair.right.source}::{pair.right.name}"
        )


if __name__ == "__main__":
    main()
