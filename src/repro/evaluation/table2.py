"""The Table II driver: LEAPME's variants against the baselines, per block.

Table II has one block per feature scope.  Each block runs LEAPME,
LEAPME(emb) and LEAPME(-emb) restricted to that scope against the
baselines that apply to it: the name-based Nezhadi, AML, FCA-Map and
SemProp in the Names and Both blocks, the instance-based LSH in the
Instances and Both blocks.

Each dataset of a block is one :class:`ExperimentRunner` grid, so the
three LEAPME variants share one feature store and one score pass per
split.  The benchmark blocks (``benchmarks/test_bench_table2_*.py``)
and ``scripts/make_report.py`` both run through :func:`run_table2_block`.
"""

from __future__ import annotations

import functools

from repro.core import FeatureConfig, FeatureKinds, FeatureScope, LeapmeMatcher
from repro.evaluation.runner import ExperimentResult, ExperimentRunner
from repro.systems import build_system_matcher

#: The training fractions Table II reports.
TABLE2_FRACTIONS = (0.2, 0.8)

#: LEAPME's three headline variants: (label, feature kinds).
LEAPME_KINDS = (
    ("LEAPME", FeatureKinds.BOTH),
    ("LEAPME(emb)", FeatureKinds.EMBEDDING),
    ("LEAPME(-emb)", FeatureKinds.NON_EMBEDDING),
)

#: Block -> (feature scope, baseline labels), in Table II's order.
TABLE2_BLOCKS = {
    "instances": (FeatureScope.INSTANCES, ("LSH",)),
    "names": (FeatureScope.NAMES, ("Nezhadi", "AML", "FCA-Map", "SemProp")),
    "both": (FeatureScope.BOTH, ("Nezhadi", "AML", "FCA-Map", "SemProp", "LSH")),
}

#: Baseline label -> its :func:`~repro.systems.build_system_matcher` name.
_BASELINE_SYSTEMS = {
    "Nezhadi": "nezhadi",
    "AML": "aml",
    "FCA-Map": "fcamap",
    "SemProp": "semprop",
    "LSH": "lsh",
}


def table2_factories(block: str, embeddings) -> dict:
    """The matcher factories of one block, closed over ``embeddings``."""
    scope, baselines = TABLE2_BLOCKS[block]
    factories = {
        label: functools.partial(
            LeapmeMatcher, embeddings, FeatureConfig(scope=scope, kinds=kinds)
        )
        for label, kinds in LEAPME_KINDS
    }
    for label in baselines:
        factories[label] = functools.partial(
            build_system_matcher, _BASELINE_SYSTEMS[label], embeddings
        )
    return factories


def run_table2_block(
    block: str,
    datasets,
    repetitions: int,
    train_fractions: tuple[float, ...] = TABLE2_FRACTIONS,
) -> list[ExperimentResult]:
    """Run one Table II block; one result per (dataset, fraction, system).

    ``datasets`` yields ``(dataset, embeddings)`` pairs.  Each dataset
    runs as one grid of the block's systems, with the factories closed
    over that dataset's embeddings.
    """
    results: list[ExperimentResult] = []
    for dataset, embeddings in datasets:
        runner = ExperimentRunner(table2_factories(block, embeddings))
        results.extend(runner.run([dataset], train_fractions, repetitions))
    return results
