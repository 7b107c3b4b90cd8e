"""Deterministic fault-injection harness.

The runner's failure isolation, retry policy and checkpoint/resume are
only trustworthy if they can be exercised against *controlled* faults.
This module injects failure modes at exact (repetition, attempt)
coordinates:

* transient or persistent exceptions during training
  (:class:`FaultInjected`);
* diverged training (:class:`~repro.errors.TrainingDivergedError`), both
  at the matcher level and -- via :class:`AlwaysDivergingClassifier` --
  inside the resilient-classifier ladder;
* NaN-corrupted similarity scores / feature matrices
  (:func:`corrupt_with_nan`), which the numeric guards must catch;
* simulated process kills (:class:`SimulatedKill`), a ``BaseException``
  that -- like a real ``SIGKILL`` -- must *not* be absorbed by the
  per-repetition isolation, leaving the journal with the completed
  prefix only;
* **process-level faults** for the pool supervisor: a hard worker death
  (``os._exit``, no Python unwinding at all), a configurable hang (to
  trip the cell-timeout watchdog), and a SIGTERM delivered to the
  parent mid-grid (to exercise signal-safe shutdown).  These faults are
  *budgeted* -- "kill the first N executions of repetition k" -- with
  the budget counted in small files under ``FaultPlan.state_dir``, so
  the count survives the very process deaths it causes and re-dispatch
  behaves deterministically.

Determinism is the point: a plan says exactly where each fault fires, so
a test that kills a run "after repetition k" does so on every machine.
"""

from __future__ import annotations

import os
import signal
import time
from collections.abc import Mapping
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core.api import Matcher
from repro.data.model import Dataset
from repro.ioutils import atomic_write_text
from repro.data.pairs import PairSet
from repro.errors import ConfigurationError, ReproError, TrainingDivergedError

#: Exit status used by injected hard worker deaths, distinctive in logs.
WORKER_EXIT_CODE = 23


class FaultInjected(ReproError):
    """An exception deliberately raised by the fault harness."""


class SimulatedKill(BaseException):
    """A simulated ``SIGKILL``.

    Deliberately **not** an :class:`Exception`: per-repetition failure
    isolation catches ``Exception`` only, so this propagates straight
    out of the runner -- exactly like a killed process -- while the
    journal keeps everything completed so far.
    """


def corrupt_with_nan(
    array: np.ndarray, fraction: float = 0.1, rng: np.random.Generator | None = None
) -> np.ndarray:
    """A copy of ``array`` with ``fraction`` of its entries set to NaN.

    At least one entry is corrupted whenever the array is non-empty, so
    a guard under test can never pass by luck.
    """
    rng = rng if rng is not None else np.random.default_rng(0)
    corrupted = np.array(array, dtype=np.float64, copy=True)
    if corrupted.size == 0:
        return corrupted
    count = max(1, int(round(fraction * corrupted.size)))
    positions = rng.choice(corrupted.size, size=min(count, corrupted.size), replace=False)
    flat = corrupted.reshape(-1)
    flat[positions] = np.nan
    return corrupted


class AlwaysDivergingClassifier:
    """A primary classifier whose training always diverges.

    Plug into ``ResilientClassifier(primary_factory=AlwaysDivergingClassifier)``
    to force the ladder all the way down to the classical fallback.
    """

    def __init__(self, config=None) -> None:
        self.config = config
        self.fit_calls = 0

    def fit(self, features, labels):
        self.fit_calls += 1
        raise TrainingDivergedError("injected divergence (fault harness)")

    def match_scores(self, features):  # pragma: no cover - never fitted
        raise AssertionError("a diverging classifier never scores")


@dataclass(frozen=True)
class FaultPlan:
    """Where and how faults fire, keyed by repetition index.

    Parameters
    ----------
    fail_attempts:
        ``{repetition: n}`` -- the first ``n`` attempts of that
        repetition raise :class:`FaultInjected` (so ``n=1`` with one
        retry allowed tests recovery; ``n`` >= max attempts tests
        exhaustion).
    kill_before:
        Repetitions that raise :class:`SimulatedKill` before any work --
        "the process died right as repetition k started".
    diverge_on:
        Repetitions whose ``fit`` raises
        :class:`~repro.errors.TrainingDivergedError` on every attempt.
    nan_scores_on:
        Repetitions whose similarity scores come back NaN-corrupted,
        which the runner's numeric guard must turn into a failure.
    exit_process_on:
        ``{repetition: n}`` -- the first ``n`` *executions* of that
        repetition hard-kill their process with ``os._exit`` (no
        exception, no cleanup: what the OOM reaper does).  Requires
        ``state_dir``.
    hang_process_on:
        ``{repetition: n}`` -- the first ``n`` executions sleep for
        ``hang_seconds`` before proceeding, so a cell-timeout watchdog
        can be exercised deterministically.  Requires ``state_dir``.
    signal_parent_on:
        ``{repetition: n}`` -- the first ``n`` executions send SIGTERM
        to the parent process as the repetition starts (the worker
        itself continues).  Requires ``state_dir``.
    hang_seconds:
        Sleep duration for ``hang_process_on`` executions.
    state_dir:
        Directory for cross-process fault budgets.  Process-level
        faults must count their firings somewhere that survives the
        process death they cause; a file per (kind, repetition) does.
    """

    fail_attempts: Mapping[int, int] = field(default_factory=dict)
    kill_before: frozenset[int] = frozenset()
    diverge_on: frozenset[int] = frozenset()
    nan_scores_on: frozenset[int] = frozenset()
    exit_process_on: Mapping[int, int] = field(default_factory=dict)
    hang_process_on: Mapping[int, int] = field(default_factory=dict)
    signal_parent_on: Mapping[int, int] = field(default_factory=dict)
    hang_seconds: float = 3600.0
    state_dir: str | None = None

    def __post_init__(self) -> None:
        needs_state = (
            self.exit_process_on or self.hang_process_on or self.signal_parent_on
        )
        if needs_state and self.state_dir is None:
            raise ConfigurationError(
                "process-level faults (exit/hang/signal) need "
                "FaultPlan.state_dir to count their budget across processes"
            )

    @classmethod
    def failing(cls, *repetitions: int, attempts: int = 10**9) -> "FaultPlan":
        """A plan where the given repetitions always fail."""
        return cls(fail_attempts={rep: attempts for rep in repetitions})

    @classmethod
    def kill_at(cls, repetition: int) -> "FaultPlan":
        """A plan that simulates a process kill as ``repetition`` starts."""
        return cls(kill_before=frozenset({repetition}))

    @classmethod
    def worker_exit(
        cls, repetition: int, *, state_dir: str, times: int = 1
    ) -> "FaultPlan":
        """Hard-kill the worker the first ``times`` runs of ``repetition``."""
        return cls(exit_process_on={repetition: times}, state_dir=state_dir)

    @classmethod
    def worker_hang(
        cls,
        repetition: int,
        *,
        state_dir: str,
        times: int = 1,
        seconds: float = 3600.0,
    ) -> "FaultPlan":
        """Hang the first ``times`` runs of ``repetition`` for ``seconds``."""
        return cls(
            hang_process_on={repetition: times},
            hang_seconds=seconds,
            state_dir=state_dir,
        )

    @classmethod
    def sigterm_parent(
        cls, repetition: int, *, state_dir: str, times: int = 1
    ) -> "FaultPlan":
        """SIGTERM the parent as ``repetition`` starts, ``times`` times."""
        return cls(signal_parent_on={repetition: times}, state_dir=state_dir)

    def consume_budget(self, kind: str, repetition: int, budget: int) -> bool:
        """Atomically claim one firing of a budgeted process fault.

        Returns True while fewer than ``budget`` firings of
        ``(kind, repetition)`` have been claimed, incrementing the
        on-disk counter.  Only one process executes a given repetition
        at a time (the supervisor re-dispatches only after a death), so
        a plain read-increment-write file is race-free here.
        """
        return _consume_file_budget(self.state_dir, f"{kind}-{repetition}", budget)


def _consume_file_budget(state_dir: str | None, key: str, budget: int) -> bool:
    """Claim one firing of an on-disk fault budget (see ``consume_budget``)."""
    if budget <= 0 or state_dir is None:
        return False
    counter = Path(state_dir) / f"{key}.count"
    fired = int(counter.read_text()) if counter.exists() else 0
    if fired >= budget:
        return False
    counter.parent.mkdir(parents=True, exist_ok=True)
    # Atomic even for a test counter: a fault that fires *while* the
    # counter is being written must not corrupt the budget (REP002).
    atomic_write_text(counter, str(fired + 1))
    return True


@dataclass(frozen=True)
class StageFaultPlan:
    """Process kills at exact journaled stages of a long-lived process.

    The follow daemon and the tenant registry call :meth:`maybe_exit`
    right after appending each lifecycle record, so
    ``exit_after={"fused": 1}`` means "hard-kill the process immediately
    after the *first* ``fused`` record lands in the journal" -- the worst
    possible instant for that stage, since everything after the append
    is lost.  The registry additionally calls it at the ``reload`` point,
    after a copy-on-swap successor state is fully built but *before* its
    ``source-added`` record lands.  Ingestion stages (``admitted``,
    ``featurized``, ``fused``) and serving stages (``created``,
    ``bootstrapped``, ``reload``, ``source-added``, ``removed``,
    ``quarantined``) do not overlap.  Budgets are counted in
    ``state_dir`` files (the process about to die cannot count in
    memory), so a restarted process given the same plan does not die
    again.
    """

    exit_after: Mapping[str, int] = field(default_factory=dict)
    state_dir: str | None = None

    def __post_init__(self) -> None:
        if self.exit_after and self.state_dir is None:
            raise ConfigurationError(
                "StageFaultPlan.state_dir is required: the kill budget "
                "must survive the process deaths it causes"
            )

    def maybe_exit(self, stage: str) -> None:
        """Hard-kill the process if ``stage`` still has kill budget."""
        if _consume_file_budget(
            self.state_dir, f"stage-{stage}", self.exit_after.get(stage, 0)
        ):
            os._exit(WORKER_EXIT_CODE)


def write_torn_csv(path: str | Path, rows: list[list[str]], keep: float = 0.5) -> None:
    """Write a CSV whose final line is cut mid-row, as a dying writer would.

    ``rows`` includes the header.  The file contains the first ``keep``
    fraction of the full byte stream, cut without regard for line
    boundaries -- exactly what a crashed (non-atomic) producer leaves
    behind.  Note a torn file whose writer is *gone* is stable, so the
    watcher will admit it; the loader then quarantines the torn row.
    The never-admit guarantee is about files still being written, which
    :class:`SlowSourceWriter` simulates.
    """
    text = "\n".join(",".join(row) for row in rows) + "\n"
    cut = max(1, int(len(text) * keep))
    Path(path).write_text(text[:cut], encoding="utf-8")  # repro: noqa[REP002] simulating a crashed non-atomic producer is the point


def write_poison_csv(path: str | Path) -> None:
    """Write a structurally broken source file (wrong header columns).

    Loading raises a permanent :class:`~repro.errors.DataError` on
    every attempt: the canonical poison source that must end up
    quarantined after its bounded retry budget while healthy sources
    keep fusing.
    """
    Path(path).write_text(  # repro: noqa[REP002] a broken source file is the desired artifact
        "wrong,header,columns\nso,this,fails\n", encoding="utf-8"
    )


class SlowSourceWriter:
    """Writes a file in small chunks with pauses, like a slow producer.

    Drives the watcher's never-admit-mid-write guarantee: while the
    writer is between chunks the file is readable but incomplete, and
    only after :meth:`finish` (or the last chunk) may an admission
    happen.  Chunks are written with plain appends -- deliberately
    non-atomic, this simulates the producers the stability gate exists
    for.  ``step`` is manual (no thread, no clock): tests interleave
    ``step()`` with watcher polls deterministically.
    """

    def __init__(self, path: str | Path, text: str, chunks: int = 4) -> None:
        if chunks < 1:
            raise ConfigurationError("chunks must be >= 1")
        self.path = Path(path)
        size = max(1, (len(text) + chunks - 1) // chunks)
        self._chunks = [text[i : i + size] for i in range(0, len(text), size)]
        self._written = 0

    @property
    def finished(self) -> bool:
        """Whether every chunk has been written."""
        return self._written >= len(self._chunks)

    def step(self) -> bool:
        """Append one more chunk; returns True while unfinished."""
        if self.finished:
            return False
        with self.path.open("a", encoding="utf-8") as handle:  # repro: noqa[REP002] the slow, torn-visible append is what the watcher must survive
            handle.write(self._chunks[self._written])
        self._written += 1
        return not self.finished

    def finish(self) -> None:
        """Write all remaining chunks."""
        while self.step():
            pass


class FaultyMatcher(Matcher):
    """Wraps any matcher and injects the faults of a :class:`FaultPlan`.

    The runner announces ``(repetition, attempt)`` through
    ``notify_repetition`` before each attempt; the wrapper uses those
    coordinates to decide which fault (if any) to fire, and keeps an
    ``injected`` log of ``(repetition, attempt, kind)`` triples plus an
    ``executed_repetitions`` set so tests can assert exactly what ran.
    """

    def __init__(self, inner: Matcher, plan: FaultPlan) -> None:
        self.inner = inner
        self.plan = plan
        self.name = inner.name
        self.is_supervised = inner.is_supervised
        self.threshold = inner.threshold
        self.injected: list[tuple[int, int, str]] = []
        self.executed_repetitions: set[int] = set()
        self._repetition = -1
        self._attempt = 1

    def notify_repetition(self, repetition: int, attempt: int) -> None:
        """Runner hook: the coordinates of the attempt about to run."""
        self._repetition = repetition
        self._attempt = attempt
        self.executed_repetitions.add(repetition)
        if repetition in self.plan.kill_before:
            self.injected.append((repetition, attempt, "kill"))
            raise SimulatedKill(f"simulated kill before repetition {repetition}")
        self._maybe_process_fault(repetition)
        inner_notify = getattr(self.inner, "notify_repetition", None)
        if inner_notify is not None:
            inner_notify(repetition, attempt)

    def _maybe_process_fault(self, repetition: int) -> None:
        """Fire budgeted process-level faults (exit / hang / parent signal)."""
        plan = self.plan
        if plan.consume_budget(
            "exit", repetition, plan.exit_process_on.get(repetition, 0)
        ):
            # A hard death: no exception, no unwinding, no result sent
            # back -- exactly what the supervisor must contain.
            os._exit(WORKER_EXIT_CODE)
        if plan.consume_budget(
            "hang", repetition, plan.hang_process_on.get(repetition, 0)
        ):
            time.sleep(plan.hang_seconds)
        if plan.consume_budget(
            "sigterm", repetition, plan.signal_parent_on.get(repetition, 0)
        ):
            os.kill(os.getppid(), signal.SIGTERM)

    def _maybe_fail(self, stage: str) -> None:
        budget = self.plan.fail_attempts.get(self._repetition, 0)
        if self._attempt <= budget:
            self.injected.append((self._repetition, self._attempt, "fail"))
            raise FaultInjected(
                f"injected {stage} failure at repetition {self._repetition}, "
                f"attempt {self._attempt}"
            )

    def prepare(self, dataset: Dataset) -> None:
        self.inner.prepare(dataset)

    def fit(self, dataset: Dataset, training_pairs: PairSet) -> None:
        self._maybe_fail("fit")
        if self._repetition in self.plan.diverge_on:
            self.injected.append((self._repetition, self._attempt, "diverge"))
            raise TrainingDivergedError(
                f"injected divergence at repetition {self._repetition}"
            )
        self.inner.fit(dataset, training_pairs)

    def score_pairs(self, dataset: Dataset, pairs: PairSet) -> np.ndarray:
        if not self.is_supervised:
            # Unsupervised matchers have no fit; inject here instead.
            self._maybe_fail("score")
        scores = self.inner.score_pairs(dataset, pairs)
        if self._repetition in self.plan.nan_scores_on:
            self.injected.append((self._repetition, self._attempt, "nan"))
            scores = corrupt_with_nan(scores)
        return scores

    @property
    def last_degradation(self):
        """Pass through the wrapped matcher's degradation report."""
        return getattr(self.inner, "last_degradation", None)
