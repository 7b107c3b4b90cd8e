"""Regenerate a markdown reproduction report (Table II, all blocks).

Runs the full Table II grid at the chosen scale and writes a
self-contained markdown report with the three blocks and a summary --
the machine-generated counterpart of the hand-written EXPERIMENTS.md.

Usage:
    python scripts/make_report.py [--scale small] [--reps 2] [--out report.md]

At the `paper` scale with `--reps 25` this reproduces the paper's exact
protocol (expect a long run).
"""

from __future__ import annotations

import argparse
import sys
import time

from repro import build_domain_embeddings, load_dataset
from repro.datasets import DATASET_NAMES
from repro.evaluation import TABLE2_BLOCKS, run_table2_block
from repro.evaluation.markdown import results_to_markdown, summary_to_markdown
from repro.ioutils import atomic_write_text


def _inputs(block: str, scale: str):
    """Each dataset with its embeddings, built as the block reaches it."""
    for name in DATASET_NAMES:
        print(f"  {block}: {name}", file=sys.stderr)
        dataset = load_dataset(name, scale=scale)
        yield dataset, build_domain_embeddings(name, scale=scale)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", default="small")
    parser.add_argument("--reps", type=int, default=2)
    parser.add_argument("--out", default="reproduction_report.md")
    parser.add_argument(
        "--fractions", default="0.2,0.8",
        help="comma-separated training fractions",
    )
    args = parser.parse_args()
    fractions = [float(value) for value in args.fractions.split(",")]

    started = time.perf_counter()
    sections = [
        "# Reproduction report — Table II",
        "",
        f"Scale `{args.scale}`, {args.reps} repetition(s), training "
        f"fractions {fractions}.  Generated by `scripts/make_report.py`.",
        "",
    ]
    for block in TABLE2_BLOCKS:
        print(f"running {block} block...", file=sys.stderr)
        results = run_table2_block(
            block, _inputs(block, args.scale), args.reps, fractions
        )
        sections.append(f"## {block.title()} block")
        sections.append("")
        sections.append(results_to_markdown(results))
        sections.append("")
        sections.append("<details><summary>per-cell summary</summary>")
        sections.append("")
        sections.append(summary_to_markdown(results))
        sections.append("")
        sections.append("</details>")
        sections.append("")
    sections.append(f"_Total runtime: {time.perf_counter() - started:.0f}s_")
    atomic_write_text(args.out, "\n".join(sections))
    print(f"report written to {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
