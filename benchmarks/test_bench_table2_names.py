"""Table II, "Names" block: name features only.

LEAPME variants restricted to name features, compared with the four
name-based baselines (Nezhadi, AML, FCA-Map, SemProp).  Expected shape
(paper):

* name-embedding features are LEAPME's strongest single block;
* the unsupervised lexical baselines (AML, FCA-Map) have very high
  precision but low recall;
* LEAPME at 80% training beats every baseline.
"""

from __future__ import annotations

from bench_common import run_block, summarize
from conftest import STRICT_SHAPE, run_once

from repro.datasets import DATASET_NAMES


def test_bench_table2_names_block(benchmark):
    results = run_once(
        benchmark,
        lambda: run_block("names", list(DATASET_NAMES)),
    )
    benchmark.extra_info.update(summarize("names", results))

    if not STRICT_SHAPE:
        # Tiny smoke scale: verify execution only; the paper's shape needs
        # the small/paper data sizes.
        return
    by_cell = {
        (r.matcher_name, r.dataset_name, r.settings.train_fraction): r for r in results
    }
    # Unsupervised lexical matchers: high precision, low recall.
    for baseline in ("AML", "FCA-Map"):
        for name in DATASET_NAMES:
            cell = by_cell[(baseline, name, 0.8)]
            assert cell.precision > 0.8, f"{baseline}/{name} P={cell.precision:.2f}"
            assert cell.recall < 0.7, f"{baseline}/{name} R={cell.recall:.2f}"
    # Embedding name features beat string distances in most cells.
    wins = sum(
        by_cell[("LEAPME(emb)", name, frac)].f1
        >= by_cell[("LEAPME(-emb)", name, frac)].f1
        for name in DATASET_NAMES
        for frac in (0.2, 0.8)
    )
    assert wins >= 6, f"embedding features won only {wins}/8 name cells"
    # LEAPME at 80% beats every name baseline on every dataset.
    baselines = ("Nezhadi", "AML", "FCA-Map", "SemProp")
    for name in DATASET_NAMES:
        leapme = by_cell[("LEAPME", name, 0.8)].f1
        for baseline in baselines:
            other = by_cell[(baseline, name, 0.8)].f1
            assert leapme >= other - 0.05, (
                f"{name}: LEAPME {leapme:.2f} vs {baseline} {other:.2f}"
            )
