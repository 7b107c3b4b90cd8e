"""Supervised process-pool execution: crash containment for the grid.

``ProcessPoolExecutor`` has no failure model: one worker killed by the
OOM reaper surfaces as ``BrokenProcessPool`` and aborts every future, a
hung task blocks ``future.result()`` forever, and Ctrl-C discards
completed-but-unrecorded work.  :class:`PoolSupervisor` sits between the
grid runner and the executor and supplies the missing model:

* **Crash containment** -- worker death (``BrokenProcessPool`` or a
  dead-pid sweep) kills only the pool generation, not the run.  The
  supervisor respawns the pool under bounded exponential backoff and
  re-dispatches every unfinished in-flight item.
* **Attribution by solo probe** -- when the pool dies with several items
  in flight, the culprit is unknowable, so all of them become
  *suspects* and are re-dispatched one at a time.  A pool death during
  a solo probe is certain attribution: that item gets a fault strike.
  Innocent co-flight items therefore never accumulate strikes.
* **Deadlines** -- with a ``cell_timeout``, a watchdog tracks when each
  item started (workers report actual starts over a ``poll_started``
  channel; without one, the executor's RUNNING transition is the
  fallback) and, past the deadline -- ``cell_timeout`` times the
  item's deadline units -- kills and reaps the workers and
  re-dispatches the victims.  The timed-out item itself is attributed
  a strike directly (its deadline, its fault).
* **Poison quarantine** -- an item whose strikes reach
  ``max_item_faults`` is not retried forever: it is completed with a
  caller-built quarantine outcome (the grid journals it as ``failed``
  with a ``worker_crash``/``timeout`` reason) and the rest of the grid
  proceeds.
* **Serial degradation** -- when pool deaths exhaust
  ``max_pool_respawns``, the supervisor logs a warning and runs the
  remaining items through the caller's serial fallback in the parent
  process (for the grid, exactly its ``workers=1`` path), so a broken
  multiprocessing environment costs speed instead of the run.
* **Signal-safe shutdown** -- a ``stop`` event (set by the caller's
  SIGINT/SIGTERM handler) halts dispatch, harvests futures that are
  already complete within a short grace window, reaps the workers and
  raises :class:`~repro.errors.GridInterrupted`.  The caller drains the
  harvested outcomes into its journal, so ``--resume`` continues from
  the exact recorded prefix.

The supervisor is deliberately generic -- items are opaque hashables,
outcomes are opaque values -- so it is unit-testable with plain
functions and reusable by any fan-out stage.  An *exception raised by
the work function itself* (as opposed to a dead worker) is not a
supervision concern: the supervisor settles the remaining in-flight
futures, reports their outcomes, and re-raises -- exactly the journal
prefix a serial run dying at that item would have left.
"""

from __future__ import annotations

import logging
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field

from repro.errors import ConfigurationError, GridInterrupted
from repro.evaluation.checkpoint import REASON_TIMEOUT, REASON_WORKER_CRASH

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class SupervisorPolicy:
    """Failure-model knobs for :class:`PoolSupervisor`.

    Parameters
    ----------
    cell_timeout:
        Wall-clock seconds one item may run before the watchdog kills
        the pool and re-dispatches, per deadline unit the item bundles
        (``PoolSupervisor(deadline_units=...)``; the grid counts one
        unit per cell of a split item); ``None`` disables deadlines.  The
        clock starts when the worker *reports* starting the item (see
        ``PoolSupervisor(poll_started=...)``); without such a channel
        it falls back to the executor marking the future running, which
        can predate actual execution by the whole pool start-up
        (imports, initializer work) -- in that mode the timeout must
        comfortably exceed pool start-up or innocent items may be
        struck.
    max_pool_respawns:
        Pool deaths tolerated before degrading to serial execution.
    max_item_faults:
        Attributed strikes (solo crashes or timeouts) before an item is
        quarantined instead of re-dispatched.
    backoff_base / backoff_cap:
        Exponential respawn backoff: death *n* sleeps
        ``min(cap, base * 2**(n-1))`` seconds before the new pool.
    watchdog_interval:
        Tick of the completion/deadline/dead-pid watch loop.
    shutdown_grace:
        Seconds to wait for nearly-done futures when a stop is
        requested, before reaping the workers.
    """

    cell_timeout: float | None = None
    max_pool_respawns: int = 5
    max_item_faults: int = 2
    backoff_base: float = 0.05
    backoff_cap: float = 2.0
    watchdog_interval: float = 0.05
    shutdown_grace: float = 0.25

    def __post_init__(self) -> None:
        if self.cell_timeout is not None and self.cell_timeout <= 0:
            raise ConfigurationError("cell_timeout must be positive (or None)")
        if self.max_pool_respawns < 0:
            raise ConfigurationError("max_pool_respawns must be >= 0")
        if self.max_item_faults < 1:
            raise ConfigurationError("max_item_faults must be >= 1")
        if self.backoff_base < 0 or self.backoff_cap < 0:
            raise ConfigurationError("backoff values must be >= 0")
        if self.watchdog_interval <= 0:
            raise ConfigurationError("watchdog_interval must be positive")
        if self.shutdown_grace < 0:
            raise ConfigurationError("shutdown_grace must be >= 0")

    def respawn_delay(self, death: int) -> float:
        """Backoff before respawn number ``death`` (1-based)."""
        if self.backoff_base <= 0:
            return 0.0
        return min(self.backoff_cap, self.backoff_base * (2.0 ** (death - 1)))


@dataclass(frozen=True)
class QuarantineRecord:
    """One item the supervisor gave up on, and why."""

    item: object
    reason: str
    faults: int


@dataclass(frozen=True)
class _Death:
    """A pool-generation death: ``cause`` is the timed-out item, if any."""

    cause: object = None
    reason: str = REASON_WORKER_CRASH


class PoolSupervisor:
    """Run ``items`` through a process pool under the failure model.

    Parameters
    ----------
    items:
        Work items in serial order (opaque, hashable, unique).
    make_pool:
        Zero-argument factory for a fresh ``ProcessPoolExecutor``.
    submit:
        ``submit(pool, item) -> Future`` dispatching one item.
    on_complete:
        ``on_complete(item, outcome)`` called exactly once per item, in
        completion order (the caller reorders; see the grid's drain).
    quarantine_outcome:
        ``quarantine_outcome(item, reason, faults) -> outcome`` building
        the structured failure outcome for a quarantined item.
    run_serial:
        ``run_serial(item) -> outcome`` executing one item in the parent
        process -- the degraded path once respawns are exhausted.
    window:
        Maximum items in flight (usually the worker count).
    stop:
        Optional ``threading.Event``; once set, the supervisor shuts
        down cleanly and raises :class:`GridInterrupted`.
    poll_started:
        Optional zero-argument callable returning the items whose
        execution a worker has *actually begun* since the last call
        (e.g. drained from a queue the workers report to).  When
        provided, the ``cell_timeout`` clock starts at the reported
        start instead of the executor's RUNNING transition, so pool
        start-up time is never charged against an item's deadline.
        Reports for items no longer in flight are discarded, and the
        channel is drained on every pool death so a dead generation's
        reports cannot leak into the next one.
    deadline_units:
        Optional ``deadline_units(item) -> int``: how many
        ``cell_timeout`` deadlines an item bundles.  The item may run
        that many times ``cell_timeout`` before it is killed; every
        item counts as one when omitted.
    """

    def __init__(
        self,
        items,
        *,
        make_pool,
        submit,
        on_complete,
        quarantine_outcome,
        run_serial,
        window: int,
        policy: SupervisorPolicy | None = None,
        stop=None,
        poll_started=None,
        deadline_units=None,
        sleep=time.sleep,
    ) -> None:
        if window < 1:
            raise ConfigurationError(f"window must be >= 1, got {window}")
        self._policy = policy if policy is not None else SupervisorPolicy()
        self._make_pool = make_pool
        self._submit = submit
        self._on_complete = on_complete
        self._quarantine_outcome = quarantine_outcome
        self._run_serial = run_serial
        self._window = window
        self._stop = stop
        self._poll_started = poll_started
        self._deadline_units = deadline_units
        self._sleep = sleep
        self._order = {item: index for index, item in enumerate(items)}
        if len(self._order) != len(items):
            raise ConfigurationError("supervised items must be unique")
        self._pending: deque = deque(items)
        self._suspects: deque = deque()
        self._probe: object | None = None
        self._inflight: dict = {}
        self._started: dict = {}
        self._strikes: dict = {}
        self._deaths = 0
        # -- telemetry ---------------------------------------------------
        self.respawns = 0
        self.crashes = 0
        self.timeouts = 0
        self.quarantined: list[QuarantineRecord] = []
        self.degraded_to_serial = False

    # -- main loop -------------------------------------------------------
    def run(self) -> None:
        """Supervise until every item completed, quarantined, or raised."""
        if not self._pending:
            return
        pool = None
        try:
            while self._pending or self._suspects or self._inflight:
                if self._stop is not None and self._stop.is_set():
                    self._halt(pool)
                    pool = None
                    raise GridInterrupted(
                        "grid stopped by signal; completed outcomes drained "
                        "-- rerun with resume to continue"
                    )
                if self.degraded_to_serial:
                    self._drain_serially()
                    return
                if pool is None:
                    pool = self._make_pool()
                death = self._dispatch(pool) or self._watch(pool)
                if death is not None:
                    self._handle_death(pool, death)
                    pool = None
        finally:
            if pool is not None:
                pool.shutdown(wait=False, cancel_futures=True)

    # -- dispatch --------------------------------------------------------
    def _dispatch(self, pool) -> _Death | None:
        """Fill the window.

        Submission is peek-then-pop: an item leaves its queue (and a
        probe is declared) only *after* ``submit`` returned a future.
        A pool that breaks at submit time therefore loses nothing --
        the item stays exactly where it was -- and a broken probe
        submission is never mis-attributed as a strike against an item
        that never ran.
        """
        if self._probe is not None:
            return None  # a probe owns the pool exclusively
        if self._suspects:
            if not self._inflight:
                item = self._suspects[0]
                try:
                    future = self._submit(pool, item)
                except BrokenProcessPool:
                    return _Death()
                self._suspects.popleft()
                self._probe = item
                self._inflight[future] = item
            return None
        while self._pending and len(self._inflight) < self._window:
            item = self._pending[0]
            try:
                future = self._submit(pool, item)
            except BrokenProcessPool:
                return _Death()
            self._pending.popleft()
            self._inflight[future] = item
        return None

    # -- watch -----------------------------------------------------------
    def _watch(self, pool) -> _Death | None:
        done, _ = wait(
            tuple(self._inflight),
            timeout=self._policy.watchdog_interval,
            return_when=FIRST_COMPLETED,
        )
        now = time.monotonic()
        if self._poll_started is None:
            # Fallback deadline clock: RUNNING means "queued to a
            # worker", which can predate actual execution by the whole
            # pool start-up.  See SupervisorPolicy.cell_timeout.
            for future, item in self._inflight.items():
                if item not in self._started and future.running():
                    self._started[item] = now
        for future in sorted(
            done, key=lambda f: self._order[self._inflight[f]]
        ):
            item = self._inflight.pop(future)
            self._started.pop(item, None)
            try:
                outcome = future.result()
            except BrokenProcessPool:
                self._inflight[future] = item  # still unfinished: re-dispatch
                return _Death()
            except BaseException as error:
                # The *work function* raised (not a dead worker): the
                # serial path would have died here.  Settle the rest of
                # the flight so the caller can journal the completed
                # prefix, then propagate.
                self._settle_and_raise(pool, error)
            if item == self._probe:
                self._probe = None
            self._on_complete(item, outcome)
        if self._poll_started is not None:
            inflight_items = set(self._inflight.values())
            for item in self._poll_started():
                # Stale reports -- items already completed, or struck
                # from a previous generation -- are discarded.
                if item in inflight_items:
                    self._started.setdefault(item, now)
        if self._policy.cell_timeout is not None:
            for item, since in self._started.items():
                if now - since >= self._deadline(item):
                    return _Death(cause=item, reason=REASON_TIMEOUT)
        if self._dead_worker(pool):
            return _Death()
        return None

    def _deadline(self, item) -> float:
        """Seconds ``item`` may run: ``cell_timeout`` per deadline unit."""
        units = 1 if self._deadline_units is None else self._deadline_units(item)
        return self._policy.cell_timeout * units

    @staticmethod
    def _dead_worker(pool) -> bool:
        """Dead-pid sweep: a worker exited without the executor noticing."""
        processes = getattr(pool, "_processes", None)
        if not processes:
            return False
        return any(
            process.exitcode is not None for process in list(processes.values())
        )

    # -- death handling --------------------------------------------------
    def _handle_death(self, pool, death: _Death) -> None:
        self._deaths += 1
        survivors = sorted(self._inflight.values(), key=self._order.__getitem__)
        self._inflight.clear()
        self._started.clear()
        if self._poll_started is not None:
            for _ in self._poll_started():
                pass  # discard the dead generation's start reports
        probe = self._probe
        self._probe = None
        if death.reason == REASON_TIMEOUT:
            self.timeouts += 1
            logger.warning(
                "item %r exceeded its deadline of %.3gs; killing pool",
                death.cause,
                self._deadline(death.cause),
            )
            self._strike(death.cause, REASON_TIMEOUT)
            victims = [item for item in survivors if item != death.cause]
            self._pending.extendleft(reversed(victims))
        else:
            self.crashes += 1
            if probe is not None:
                # Solo probe: the dead pool ran exactly one item, so the
                # attribution is certain.
                logger.warning("worker died during solo probe of %r", probe)
                self._strike(probe, REASON_WORKER_CRASH)
            else:
                logger.warning(
                    "worker pool died with %d item(s) in flight; "
                    "re-dispatching them one at a time",
                    len(survivors),
                )
                self._suspects.extend(survivors)
        self._reap(pool)
        if self._deaths > self._policy.max_pool_respawns:
            logger.warning(
                "pool died %d time(s), exceeding the respawn budget of %d: "
                "degrading to serial in-process execution",
                self._deaths,
                self._policy.max_pool_respawns,
            )
            self.degraded_to_serial = True
            return
        self.respawns += 1
        delay = self._policy.respawn_delay(self._deaths)
        if delay > 0:
            self._sleep(delay)

    def _strike(self, item, reason: str) -> None:
        faults = self._strikes.get(item, 0) + 1
        self._strikes[item] = faults
        if faults >= self._policy.max_item_faults:
            record = QuarantineRecord(item=item, reason=reason, faults=faults)
            self.quarantined.append(record)
            logger.warning(
                "quarantining %r after %d %s fault(s)", item, faults, reason
            )
            self._on_complete(
                item, self._quarantine_outcome(item, reason, faults)
            )
        else:
            self._suspects.appendleft(item)

    @staticmethod
    def _reap(pool) -> None:
        """Kill and shut down a (possibly hung or broken) pool."""
        processes = getattr(pool, "_processes", None) or {}
        for process in list(processes.values()):
            try:
                process.kill()
            except (OSError, ValueError):  # pragma: no cover - already gone
                pass
        pool.shutdown(wait=False, cancel_futures=True)

    # -- degraded + shutdown paths ---------------------------------------
    def _drain_serially(self) -> None:
        """Respawn budget exhausted: run the remainder in this process."""
        remaining = sorted(
            list(self._suspects) + list(self._pending),
            key=self._order.__getitem__,
        )
        self._suspects.clear()
        self._pending.clear()
        for item in remaining:
            if self._stop is not None and self._stop.is_set():
                raise GridInterrupted(
                    "grid stopped by signal during serial degradation"
                )
            self._on_complete(item, self._run_serial(item))

    def _settle_and_raise(self, pool, error: BaseException) -> None:
        """A work-function exception is fatal: settle briefly, then raise.

        Waits only ``shutdown_grace`` for the sibling futures -- never
        ``cell_timeout`` (``None`` would block forever), so a hung
        sibling cannot deadlock the parent while it is trying to die.
        Whatever finished inside the grace window is reported (the
        caller journals the completed prefix); the pool is then reaped,
        because a hung worker would survive a plain executor shutdown.
        """
        if self._inflight:
            wait(tuple(self._inflight), timeout=self._policy.shutdown_grace)
        for future in sorted(
            [f for f in self._inflight if f.done()],
            key=lambda f: self._order[self._inflight[f]],
        ):
            item = self._inflight[future]
            try:
                outcome = future.result()
            except BaseException:  # noqa: BLE001 - best-effort settle
                continue
            self._on_complete(item, outcome)
        self._inflight.clear()
        self._reap(pool)
        raise error

    def _halt(self, pool) -> None:
        """Stop requested: harvest what is already done, reap the rest."""
        if self._inflight:
            wait(tuple(self._inflight), timeout=self._policy.shutdown_grace)
        for future in sorted(
            [f for f in self._inflight if f.done()],
            key=lambda f: self._order[self._inflight[f]],
        ):
            item = self._inflight.pop(future)
            try:
                outcome = future.result()
            except BaseException:  # noqa: BLE001 - dying anyway
                continue
            self._on_complete(item, outcome)
        self._inflight.clear()
        if pool is not None:
            self._reap(pool)
