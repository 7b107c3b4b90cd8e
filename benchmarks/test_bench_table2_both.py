"""Table II, "Both" block: the headline comparison.

Full LEAPME (instance + name features) and its embedding-only /
non-embedding-only variants against all five baselines on all four
datasets at 20% and 80% training.  This is the paper's main result:

* LEAPME achieves the best F1 on every dataset at 80% training;
* combining instance and name features matches or improves on either
  scope alone;
* embedding features carry most of the signal.
"""

from __future__ import annotations

from bench_common import run_block, summarize
from conftest import BENCH_REPS, STRICT_SHAPE, run_once

from repro.datasets import DATASET_NAMES
from repro.evaluation import compare_results


def test_bench_table2_both_block(benchmark):
    results = run_once(
        benchmark,
        lambda: run_block("both", list(DATASET_NAMES)),
    )
    benchmark.extra_info.update(summarize("both", results))

    if not STRICT_SHAPE:
        # Tiny smoke scale: verify execution only; the paper's shape needs
        # the small/paper data sizes.
        return
    by_cell = {
        (r.matcher_name, r.dataset_name, r.settings.train_fraction): r for r in results
    }
    baselines = ("Nezhadi", "AML", "FCA-Map", "SemProp", "LSH")
    # Headline: at 80% training LEAPME beats every baseline everywhere.
    for name in DATASET_NAMES:
        leapme = by_cell[("LEAPME", name, 0.8)].f1
        for baseline in baselines:
            other = by_cell[(baseline, name, 0.8)].f1
            assert leapme >= other - 0.05, (
                f"{name}@80%: LEAPME {leapme:.2f} vs {baseline} {other:.2f}"
            )
    # On the flagship camera dataset LEAPME also wins at 20% training.
    cameras_leapme_20 = by_cell[("LEAPME", "cameras", 0.2)].f1
    for baseline in baselines:
        other = by_cell[(baseline, "cameras", 0.2)].f1
        assert cameras_leapme_20 >= other - 0.05, (
            f"cameras@20%: LEAPME {cameras_leapme_20:.2f} vs {baseline} {other:.2f}"
        )
    # Embedding features beat non-embedding features in most cells.
    wins = sum(
        by_cell[("LEAPME(emb)", name, frac)].f1
        >= by_cell[("LEAPME(-emb)", name, frac)].f1
        for name in DATASET_NAMES
        for frac in (0.2, 0.8)
    )
    assert wins >= 6, f"embedding features won only {wins}/8 cells"
    # Excellent absolute scores at 80%, led by the balanced camera set.
    assert by_cell[("LEAPME", "cameras", 0.8)].f1 > 0.9
    # With enough repetitions (paper scale), the camera win over the
    # supervised baseline is statistically significant, not split luck.
    if BENCH_REPS >= 10:
        comparison = compare_results(
            by_cell[("LEAPME", "cameras", 0.8)],
            by_cell[("Nezhadi", "cameras", 0.8)],
        )
        print(f"LEAPME vs Nezhadi (cameras @80%): {comparison.describe()}")
        assert comparison.significant(0.05)
