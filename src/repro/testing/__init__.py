"""Deterministic fault injection for robustness testing.

Everything here exists to *prove* the fault-tolerance layer works: the
harness injects NaN features, mid-repetition exceptions, diverged
training and simulated process kills at exact, reproducible points, so
integration tests can assert that checkpoints resume and fallbacks fire.
"""

from repro.testing.faults import (
    WORKER_EXIT_CODE,
    AlwaysDivergingClassifier,
    FaultInjected,
    FaultPlan,
    FaultyMatcher,
    SimulatedKill,
    SlowSourceWriter,
    StageFaultPlan,
    corrupt_with_nan,
    write_poison_csv,
    write_torn_csv,
)

__all__ = [
    "WORKER_EXIT_CODE",
    "AlwaysDivergingClassifier",
    "FaultInjected",
    "FaultPlan",
    "FaultyMatcher",
    "SimulatedKill",
    "SlowSourceWriter",
    "StageFaultPlan",
    "corrupt_with_nan",
    "write_poison_csv",
    "write_torn_csv",
]
