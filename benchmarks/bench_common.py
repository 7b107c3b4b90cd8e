"""Shared experiment drivers for the Table II benchmark blocks."""

from __future__ import annotations

from conftest import BENCH_REPS, bench_dataset, bench_embeddings

from repro.evaluation import format_table2, run_table2_block


def run_block(block: str, datasets: list[str]) -> list:
    """Run one Table II block over all datasets and training fractions."""
    return run_table2_block(
        block,
        ((bench_dataset(name), bench_embeddings(name)) for name in datasets),
        BENCH_REPS,
    )


def summarize(block: str, results: list) -> dict:
    """Print the block table and return headline F1s for extra_info."""
    title = f"Table II -- {block} block (scale-dependent absolute values; compare shape)"
    print("\n" + format_table2(results, title=title))
    leapme = {
        (r.dataset_name, r.settings.train_fraction): r.f1
        for r in results
        if r.matcher_name == "LEAPME"
    }
    return {f"f1_{name}_{frac:.0%}": round(f1, 3) for (name, frac), f1 in leapme.items()}
