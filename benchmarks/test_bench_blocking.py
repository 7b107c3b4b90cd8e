"""Extension H: blocking for scalable multi-source matching.

The paper's camera dataset already implies ~5M candidate pairs; at web
scale, classifying all of them is the bottleneck.  This bench measures
the standard blocking trade-off -- reduction ratio vs pair completeness
-- and the end-to-end effect: match quality and wall-clock when LEAPME
scores only the surviving candidates.
"""

from __future__ import annotations

import time

import numpy as np
from conftest import STRICT_SHAPE, bench_dataset, bench_embeddings, run_once

from repro.blocking import CandidatePolicy, MinHashBlocker
from repro.core import LeapmeMatcher, PairUniverse
from repro.data.pairs import build_pairs, sample_training_pairs
from repro.data.splits import split_sources
from repro.metrics import evaluate_scores

#: label -> (candidate policy, blocker instance or None to resolve it).
#: ``minhash`` here is the plain banded :class:`MinHashBlocker`, which no
#: policy label resolves to (the ``minhash`` policy is ``SketchBlocker``),
#: so its universe is handed the instance.
BLOCKERS = {
    "none": (CandidatePolicy.null(), None),
    "token": (CandidatePolicy.from_label("token"), None),
    "minhash": (
        CandidatePolicy.from_label("minhash:num_hashes=32,band_size=2"),
        MinHashBlocker(num_hashes=32, band_size=2),
    ),
}


def test_bench_blocking_tradeoff(benchmark):
    dataset = bench_dataset("cameras")
    embeddings = bench_embeddings("cameras")
    rng = np.random.default_rng(0)
    split = split_sources(dataset, 0.8, rng)
    training = sample_training_pairs(
        build_pairs(dataset, list(split.train_sources), within=True), rng=rng
    )
    matcher = LeapmeMatcher(embeddings)
    matcher.fit(dataset, training)
    train_sources = list(split.train_sources)

    def run():
        rows = {}
        for label, (policy, blocker) in BLOCKERS.items():
            start = time.perf_counter()
            universe = PairUniverse(dataset, policy, blocker=blocker)
            blocking_seconds = time.perf_counter() - start
            stats = universe.blocking_stats()
            # Score only the surviving held-out pairs.
            candidates = universe.subset(train_sources, within=False)
            start = time.perf_counter()
            scores = matcher.score_pairs(dataset, candidates)
            scoring_seconds = time.perf_counter() - start
            match_quality = evaluate_scores(scores, candidates.labels(), matcher.threshold)
            # Pairs pruned by blocking are implicit non-matches: recall is
            # evaluated against ALL held-out true pairs.
            kept_true = int(candidates.labels().sum())
            total_true = kept_true + universe.missed_true_pairs(
                train_sources, within=False
            )
            effective_recall = (
                match_quality.recall * (kept_true / total_true) if total_true else 1.0
            )
            rows[label] = {
                "rr": stats["reduction_ratio"],
                "pc": stats["pair_recall"],
                "precision": match_quality.precision,
                "effective_recall": effective_recall,
                "blocking_s": blocking_seconds,
                "scoring_s": scoring_seconds,
            }
        return rows

    rows = run_once(benchmark, run)
    print("\nblocking trade-off (cameras @80%):")
    print(f"{'blocker':<10} {'RR':>5} {'PC':>5} {'P':>5} {'eff.R':>6} {'block s':>8} {'score s':>8}")
    for label, row in rows.items():
        print(
            f"{label:<10} {row['rr']:>5.2f} {row['pc']:>5.2f} "
            f"{row['precision']:>5.2f} {row['effective_recall']:>6.2f} "
            f"{row['blocking_s']:>8.2f} {row['scoring_s']:>8.2f}"
        )
        benchmark.extra_info[f"{label}_rr"] = round(row["rr"], 3)
        benchmark.extra_info[f"{label}_pc"] = round(row["pc"], 3)

    if not STRICT_SHAPE:
        return  # tiny smoke scale: execution only
    # The null blocker defines the reference.
    assert rows["none"]["rr"] == 0.0 and rows["none"]["pc"] == 1.0
    # Real blockers must prune substantially while keeping most true pairs.
    for label in ("token", "minhash"):
        assert rows[label]["rr"] > 0.3, f"{label} prunes too little"
        assert rows[label]["pc"] > 0.6, f"{label} loses too many true pairs"
    # Pruning must pay off in scoring time.
    assert rows["token"]["scoring_s"] <= rows["none"]["scoring_s"] * 1.1
