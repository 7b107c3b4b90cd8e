"""Extension H: blocking for scalable multi-source matching.

The paper's camera dataset already implies ~5M candidate pairs; at web
scale, classifying all of them is the bottleneck.  The first bench
measures the standard blocking trade-off -- reduction ratio vs pair
completeness -- and the end-to-end effect: match quality and wall-clock
when LEAPME scores only the surviving candidates.  The second runs the
paper's 9-config grid over the full cross product and under the
``minhash`` policy and asserts the blocking contract (DESIGN.md §15):
pair recall >= 0.98 at >= 5x reduction, and no cell's mean F1 over 15
repetitions more than 0.01 below its full-cross-product value.
"""

from __future__ import annotations

import time

import numpy as np
from conftest import STRICT_SHAPE, bench_dataset, bench_embeddings, run_once

from repro.blocking import CandidatePolicy, MinHashBlocker
from repro.core import FeatureConfig, LeapmeMatcher, PairUniverse
from repro.data.pairs import build_pairs, sample_training_pairs
from repro.data.splits import split_sources
from repro.evaluation import ExperimentRunner
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


#: The blocked-grid protocol: the paper's 20% and 80% training fractions
#: and 15 repetitions.  The F1 budget is a claim about a 15-repetition
#: mean: the worst cell's mean loses 0.039 at 2 repetitions, 0.015 at 3.
GRID_FRACTIONS = (0.2, 0.8)
GRID_REPETITIONS = 15

#: The blocking contract: pair recall, reduction factor (cross product
#: over candidates) and the largest F1 a cell may lose to pruning.
MIN_PAIR_RECALL = 0.98
MIN_REDUCTION_FACTOR = 5.0
MAX_F1_LOSS = 0.01


def test_bench_blocking_grid(benchmark):
    """The 9-config grid, full cross product vs the minhash policy.

    The paper's network on headphones, two workers, seed 0.  Pruned true
    matches count as misses, so each per-cell delta (blocked minus full)
    is measured against the full ground truth.
    """
    dataset = bench_dataset("headphones")
    embeddings = bench_embeddings("headphones")
    policy = CandidatePolicy.from_label("minhash")
    stats = PairUniverse(dataset, policy, embeddings=embeddings).blocking_stats()
    reduction = stats["total_pairs"] / stats["candidates"]
    runner = ExperimentRunner(
        {
            config.label(): (lambda config=config: LeapmeMatcher(embeddings, config))
            for config in FeatureConfig.grid()
        }
    )
    kwargs = dict(
        train_fractions=list(GRID_FRACTIONS),
        repetitions=GRID_REPETITIONS,
        seed=0,
        workers=2,
    )

    started = time.perf_counter()
    full = runner.run([dataset], **kwargs)
    full_seconds = time.perf_counter() - started
    blocked = run_once(benchmark, lambda: runner.run([dataset], policy=policy, **kwargs))
    blocked_seconds = benchmark.stats.stats.mean

    full_f1 = {(r.matcher_name, r.settings.train_fraction): r.f1 for r in full}
    deltas = {
        f"{r.matcher_name}@{r.settings.train_fraction:.0%}": (
            r.f1 - full_f1[(r.matcher_name, r.settings.train_fraction)]
        )
        for r in blocked
    }
    worst_loss = max(0.0, -min(deltas.values()))
    print(
        f"\nblocked grid ({policy.label}, headphones, {len(deltas)} cells x "
        f"{GRID_REPETITIONS} repetitions): {stats['candidates']} of "
        f"{stats['total_pairs']} pairs ({reduction:.2f}x), pair recall "
        f"{stats['pair_recall']:.2%}"
    )
    print(
        f"F1 delta (blocked - full): [{min(deltas.values()):+.4f}, "
        f"{max(deltas.values()):+.4f}], worst loss {worst_loss:.4f}; "
        f"wall clock full {full_seconds:.2f}s, blocked {blocked_seconds:.2f}s"
    )
    benchmark.extra_info["pair_recall"] = round(stats["pair_recall"], 4)
    benchmark.extra_info["reduction_factor"] = round(reduction, 3)
    benchmark.extra_info["f1_loss_max"] = round(worst_loss, 4)
    benchmark.extra_info["full_seconds"] = round(full_seconds, 4)

    assert len(deltas) == 9 * len(GRID_FRACTIONS)
    if not STRICT_SHAPE:
        return  # tiny smoke scale: execution only
    assert stats["pair_recall"] >= MIN_PAIR_RECALL
    assert reduction >= MIN_REDUCTION_FACTOR
    assert worst_loss <= MAX_F1_LOSS, deltas
