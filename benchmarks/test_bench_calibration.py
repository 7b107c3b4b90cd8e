"""Extension G: operating points of the LEAPME similarity scores.

The paper evaluates at the softmax-argmax threshold (0.5).  Because
training pairs are 2:1 negative-sampled while the candidate distribution
is ~25:1 negative, that threshold is not automatically the best
operating point -- especially with little training data.  This bench
maps the full precision-recall curve of the scores at 20% training and
reports the achievable operating points (the analysis behind deviation 4
in EXPERIMENTS.md).
"""

from __future__ import annotations

import numpy as np
from conftest import STRICT_SHAPE, bench_dataset, bench_embeddings, run_once

from repro.core import LeapmeMatcher
from repro.data.pairs import build_pairs, sample_training_pairs
from repro.data.splits import split_sources
from repro.evaluation.curves import precision_recall_curve
from repro.metrics import evaluate_scores


def test_bench_operating_points(benchmark):
    dataset = bench_dataset("headphones")
    embeddings = bench_embeddings("headphones")

    def run():
        rows = []
        for repetition in range(3):
            rng = np.random.default_rng([repetition, 97])
            split = split_sources(dataset, 0.2, rng)
            training = sample_training_pairs(
                build_pairs(dataset, list(split.train_sources), within=True), rng=rng
            )
            if not training.positives() or not training.negatives():
                continue
            test = build_pairs(dataset, list(split.train_sources), within=False)
            matcher = LeapmeMatcher(embeddings)
            matcher.fit(dataset, training)
            scores = matcher.score_pairs(dataset, test)
            labels = test.labels()
            curve = precision_recall_curve(scores, labels)
            best_f1, best_threshold = curve.best_f1()
            rows.append(
                {
                    "f1_at_half": evaluate_scores(scores, labels, 0.5).f1,
                    "best_f1": best_f1,
                    "best_threshold": best_threshold,
                    "average_precision": curve.average_precision,
                    "base_rate": float(labels.mean()),
                    "p_at_r50": curve.precision_at_recall(0.5),
                }
            )
        return rows

    rows = run_once(benchmark, run)
    mean = {key: float(np.mean([row[key] for row in rows])) for key in rows[0]}
    print("\noperating points at 20% training (headphones, mean of reps):")
    print(f"  F1 @ threshold 0.5 : {mean['f1_at_half']:.2f}")
    print(f"  best achievable F1 : {mean['best_f1']:.2f} "
          f"(threshold ~{mean['best_threshold']:.2f})")
    print(f"  average precision  : {mean['average_precision']:.2f} "
          f"(positive base rate {mean['base_rate']:.3f})")
    print(f"  precision @ R>=0.5 : {mean['p_at_r50']:.2f}")
    benchmark.extra_info.update({key: round(value, 3) for key, value in mean.items()})

    if not STRICT_SHAPE:
        return  # tiny smoke scale: execution only
    # The ranking is far better than random (AP >> base rate)...
    assert mean["average_precision"] > 10 * mean["base_rate"]
    # ...and threshold tuning recovers substantial F1 over the fixed 0.5,
    # which is exactly why the 20% rows of Table II underestimate the
    # score quality.
    assert mean["best_f1"] >= mean["f1_at_half"]
    # A usable high-precision operating point exists at recall 0.5 --
    # an order of magnitude above the positive base rate.
    assert mean["p_at_r50"] > 10 * mean["base_rate"]
