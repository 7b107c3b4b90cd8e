"""Table II, "Instances" block: instance features only.

LEAPME / LEAPME(emb) / LEAPME(-emb) restricted to instance features,
compared with the instance-based LSH baseline, on all four datasets at
20% and 80% training.  Expected shape (paper):

* embedding instance features beat the format meta-features;
* 80% training beats 20%;
* LSH is competitive on the value-rich camera dataset but recall-starved
  on the low-quality datasets.
"""

from __future__ import annotations

from bench_common import run_block, summarize
from conftest import STRICT_SHAPE, run_once

from repro.datasets import DATASET_NAMES


def test_bench_table2_instances_block(benchmark):
    results = run_once(
        benchmark,
        lambda: run_block("instances", list(DATASET_NAMES)),
    )
    benchmark.extra_info.update(summarize("instances", results))

    if not STRICT_SHAPE:
        # Tiny smoke scale: verify execution only; the paper's shape needs
        # the small/paper data sizes.
        return
    by_cell = {
        (r.matcher_name, r.dataset_name, r.settings.train_fraction): r for r in results
    }
    # Embedding instance features beat non-embedding ones on most cells.
    wins = sum(
        by_cell[("LEAPME(emb)", name, frac)].f1
        >= by_cell[("LEAPME(-emb)", name, frac)].f1
        for name in DATASET_NAMES
        for frac in (0.2, 0.8)
    )
    assert wins >= 6, f"embedding features won only {wins}/8 instance cells"
    # More training data helps the full variant on every dataset.
    for name in DATASET_NAMES:
        assert (
            by_cell[("LEAPME", name, 0.8)].f1 >= by_cell[("LEAPME", name, 0.2)].f1 - 0.05
        )
    # LSH does best on cameras (the paper's pattern).
    lsh = {name: by_cell[("LSH", name, 0.8)].f1 for name in DATASET_NAMES}
    assert lsh["cameras"] == max(lsh.values())
