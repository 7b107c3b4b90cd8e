"""Evaluation engine: cache-aware parallel grid vs the legacy serial path.

Runs the 9-config feature grid once through the engine (shared pair-
feature store + process-pool executor) and once through the legacy
serial path, asserts the aggregates are identical, and reports the
wall-clock ratio.  ``scripts/bench_grid.py`` (``make bench``) is the
standalone driver with knobs; this module keeps the comparison in the
benchmark suite so regressions show up alongside the paper tables.
"""

from __future__ import annotations

from time import perf_counter

import pytest
from conftest import BENCH_REPS, bench_dataset, bench_embeddings, run_once

from repro.core import FeatureConfig, LeapmeConfig, LeapmeMatcher
from repro.evaluation import ExperimentRunner
from repro.nn.schedule import TrainingSchedule

#: The paper's training fractions.  On the 10-source headphones they
#: train on 2 and 8 sources, so the two halves of the grid are distinct
#: experiments (0.1 and 0.2 both rounded to 2 sources and repeated the
#: same splits).
TRAIN_FRACTIONS = (0.2, 0.8)

#: A small network isolates the engine from NN training, which is
#: identical work in both modes.
LIGHT_NETWORK = LeapmeConfig(
    hidden_sizes=(8,), schedule=TrainingSchedule.constant(1, 1e-3)
)


def _factories(embeddings) -> dict:
    return {
        config.label(): (
            lambda config=config: LeapmeMatcher(
                embeddings, config, config=LIGHT_NETWORK
            )
        )
        for config in FeatureConfig.grid()
    }


def _aggregates(results) -> list:
    return [
        (
            result.matcher_name,
            result.settings.train_fraction,
            [
                (q.true_positives, q.false_positives, q.false_negatives)
                for q in result.qualities
            ],
            result.skipped_repetitions,
        )
        for result in results
    ]


# Two fractions collapsing onto one training-source count would make
# the grid run one experiment twice; fail instead of warning.
@pytest.mark.filterwarnings("error:dataset .*both train on:UserWarning")
def test_bench_grid_engine(benchmark):
    """Engine grid wall-clock, with serial parity checked in-test."""
    dataset = bench_dataset("headphones")
    embeddings = bench_embeddings("headphones")
    runner = ExperimentRunner(_factories(embeddings))
    kwargs = dict(
        train_fractions=list(TRAIN_FRACTIONS),
        repetitions=BENCH_REPS,
        seed=0,
    )

    engine_results = run_once(
        benchmark,
        lambda: runner.run(
            [dataset], workers=2, share_features=True, **kwargs
        ),
    )

    started = perf_counter()
    serial_results = runner.run(
        [dataset], workers=1, share_features=False, **kwargs
    )
    serial_seconds = perf_counter() - started

    assert _aggregates(engine_results) == _aggregates(serial_results)
    engine_seconds = benchmark.stats.stats.mean
    benchmark.extra_info["serial_seconds"] = round(serial_seconds, 4)
    benchmark.extra_info["speedup"] = (
        round(serial_seconds / engine_seconds, 3) if engine_seconds else 0.0
    )
    benchmark.extra_info["cells"] = 9 * len(TRAIN_FRACTIONS)
    benchmark.extra_info["repetitions"] = BENCH_REPS
