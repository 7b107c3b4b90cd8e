"""Fast fault-injection smoke test for `make check`.

Runs the evaluation protocol with an injected mid-grid failure and a
simulated kill + resume, and asserts that the fault-tolerance layer
holds: the failing repetition is isolated and reported, the resumed run
reproduces the uninterrupted aggregates exactly.  A grid pass then kills
an in-process (``workers=1``) ``ExperimentRunner`` grid and resumes it
on two worker processes: journal bytes and aggregates must equal an
uninterrupted run's.  Exits non-zero on any violation; wall clock is a
few seconds (tiny dataset, cheap matcher).
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core.api import Matcher  # noqa: E402
from repro.datasets import load_dataset  # noqa: E402
from repro.evaluation import (  # noqa: E402
    ExperimentRunner,
    RetryPolicy,
    RunJournal,
    RunSettings,
    evaluate_matcher,
    render_robustness_report,
)
from repro.testing import FaultPlan, FaultyMatcher, SimulatedKill  # noqa: E402
from repro.text.normalize import token_set  # noqa: E402


class NameEqMatcher(Matcher):
    name = "NameEq"
    is_supervised = True

    def fit(self, dataset, training_pairs):
        pass

    def score_pairs(self, dataset, pairs):
        return np.array(
            [
                1.0 if token_set(p.left.name) == token_set(p.right.name) else 0.0
                for p in pairs
            ]
        )


def _doomed_factory():
    return FaultyMatcher(NameEqMatcher(), FaultPlan.kill_at(2))


def _summaries(results):
    return [
        (r.matcher_name, r.settings.train_fraction, r.qualities, r.skipped_repetitions)
        for r in results
    ]


def grid_kill_and_resume(dataset, scratch: Path) -> None:
    """Kill a ``workers=1`` grid, resume it on a pool, match a clean run."""
    grid = dict(train_fractions=(0.5, 0.8), repetitions=4, seed=7)
    clean = RunJournal(scratch / "clean.jsonl")
    baseline = ExperimentRunner({"nameeq": NameEqMatcher}).run(
        [dataset], journal=clean, **grid
    )
    journal = RunJournal(scratch / "grid.jsonl")
    try:
        ExperimentRunner({"nameeq": _doomed_factory}).run(
            [dataset], journal=journal, workers=1, **grid
        )
        raise AssertionError("simulated kill did not propagate from the grid")
    except SimulatedKill:
        pass
    (key,) = journal.keys()
    assert set(journal.entries(key)) == {0, 1}, journal.entries(key)
    resumed = ExperimentRunner({"nameeq": NameEqMatcher}).run(
        [dataset], journal=journal, workers=2, **grid
    )
    assert [r.resumed_repetitions for r in resumed] == [2, 0], resumed
    assert _summaries(resumed) == _summaries(baseline), (resumed, baseline)
    assert journal.path.read_bytes() == clean.path.read_bytes()


def main() -> int:
    dataset = load_dataset("headphones", scale="tiny", seed=0)
    settings = RunSettings(train_fraction=0.5, repetitions=4, seed=7)

    # 1. An injected failure is isolated and reported, not fatal.
    faulty = FaultyMatcher(NameEqMatcher(), FaultPlan.failing(1))
    result = evaluate_matcher(
        faulty, dataset, settings, retry_policy=RetryPolicy(max_retries=0)
    )
    assert result.skipped_repetitions == 1, result
    assert len(result.qualities) == settings.repetitions - 1, result
    report = render_robustness_report([result])
    assert "1 skipped" in report, report
    print(report)

    # 2. Kill after repetition 1, resume, match the uninterrupted run.
    baseline = evaluate_matcher(NameEqMatcher(), dataset, settings)
    with tempfile.TemporaryDirectory() as scratch:
        journal = RunJournal(Path(scratch) / "run.jsonl")
        try:
            evaluate_matcher(
                FaultyMatcher(NameEqMatcher(), FaultPlan.kill_at(2)),
                dataset,
                settings,
                journal=journal,
            )
            raise AssertionError("simulated kill did not propagate")
        except SimulatedKill:
            pass
        resumed = evaluate_matcher(NameEqMatcher(), dataset, settings, journal=journal)
        assert resumed.resumed_repetitions == 2, resumed
        assert resumed.qualities == baseline.qualities, (resumed, baseline)

    # 3. The same kill and resume across the grid engine's worker counts.
    with tempfile.TemporaryDirectory() as scratch:
        grid_kill_and_resume(dataset, Path(scratch))
    print("fault-injection smoke: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
