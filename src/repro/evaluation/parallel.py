"""The grid engine: one plan, run in this process or on a process pool.

``ExperimentRunner.run`` lands here for every worker count.  The grid
is flattened into (cell, repetition) work items in grid order -- cells
in dataset/fraction/matcher order, repetitions ascending -- and items
already in the journal are restored instead of run.  The pending items
go through :func:`_execute_item`: in this process when ``workers ==
1``, on a supervised ``ProcessPoolExecutor`` otherwise.  Either way
the parent folds every outcome through one :class:`_SerialDrain`, in
grid order, and is the only process that touches the journal.

Why every worker count gives the same bytes:

* every repetition's randomness derives from ``(seed, repetition
  [, attempt])`` alone -- the split from ``default_rng((seed,
  repetition))``, the training sample from ``default_rng([seed,
  repetition, 1709 + attempt-1])`` -- so whichever process runs an
  item computes the same numbers;
* every item runs the same :func:`_execute_item` and yields a
  picklable ``_Outcome``; the drain applies and journals outcomes in
  grid order, so journal files match byte for byte;
* workers never write the journal: durability stays a single-writer,
  fsynced append stream, and journaled repetitions are restored in the
  parent and never run.

A ``BaseException`` escaping a repetition (e.g. the fault harness's
``SimulatedKill``) propagates at that item's position in grid order --
at once in-process, through ``future.result()`` from a pool; later
completed items are discarded unjournaled, so the journal holds
exactly the prefix before the kill.

Every repetition runs :func:`~repro.evaluation.runner._run_repetition`
to the end in the process that picked it up -- pair build, fit *and*
score -- so the pool's ``cell_timeout`` deadline covers scoring as it
does every other phase.  Nothing in-process can enforce a deadline, so
``ExperimentRunner.run`` rejects one at ``workers=1``.

Shared features: each executing process resolves a dataset's pair
universe, and each (dataset, embeddings) feature store, at most once
through one :class:`_SharedFeatures`; a repetition's pair sets are row
arrays over its dataset's universe.  Under the ``fork`` start method
the parent prebuilds every pending dataset's universe and stores
before creating the pool; a prebuilt store is the staged pipeline's
full package -- the :class:`~repro.core.pipeline.FeatureSchema`, the
columnar float32 per-property stage outputs and the assembled
full-width matrix, all read-only -- so children inherit them through
copy-on-write pages and the construction cost is paid once per grid.
Under ``spawn`` each worker builds its own, at most once per dataset.

Failure model: the pool is run by
:class:`~repro.evaluation.supervisor.PoolSupervisor` -- a dead worker
respawns the pool and re-dispatches its items, a hung repetition is
killed at the ``cell_timeout`` deadline, poison items are quarantined as
structured ``failed`` journal records, and SIGINT/SIGTERM drain the
completed grid-order prefix into the journal before raising
:class:`~repro.errors.GridInterrupted`.  When pool deaths exhaust the
respawn budget, the remaining items run in-process exactly as at
``workers=1``.  Completed outcomes are journaled *progressively*, so
even a hard parent kill leaves the longest durable prefix.
"""

from __future__ import annotations

import multiprocessing
import signal
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from queue import Empty

import numpy as np

from repro.data.model import Dataset
from repro.data.splits import split_sources, train_source_count
from repro.errors import GridInterrupted
from repro.evaluation.checkpoint import STATUS_FAILED, RunJournal, run_key
from repro.evaluation.runner import (
    ExperimentResult,
    RetryPolicy,
    RunSettings,
    _apply_journal_entry,
    _apply_outcome,
    _journal_outcome,
    _Outcome,
    _run_repetition,
)
from repro.evaluation.supervisor import PoolSupervisor, SupervisorPolicy


@dataclass(frozen=True)
class GridCell:
    """One (dataset, fraction, matcher) cell of the flattened grid."""

    index: int
    dataset_index: int
    label: str
    settings: RunSettings


class _SharedFeatures:
    """The pair universes and feature stores one process shares.

    A dataset's universe is enumerated once, under the grid's candidate
    policy.  Matchers exposing ``build_feature_store``/``attach_store``
    share one full-width store per ``(dataset_index, id(embeddings))``,
    built on that universe; ids survive fork, so a worker's
    factory-made matcher finds the store the parent prebuilt.
    """

    def __init__(self, factories: dict, datasets: list[Dataset], policy=None) -> None:
        self.factories = factories
        self.datasets = datasets
        self.policy = policy
        self.universes: dict[int, object] = {}
        self.stores: dict[tuple[int, int], object] = {}

    def universe(self, dataset_index: int):
        universe = self.universes.get(dataset_index)
        if universe is None:
            from repro.core.feature_cache import PairUniverse

            universe = self.universes[dataset_index] = PairUniverse(
                self.datasets[dataset_index],
                self.policy,
                embeddings=self._policy_embeddings(),
            )
        return universe

    def _policy_embeddings(self):
        """The embeddings an embedding-bucket policy resolves against.

        Universes exist before any cell's matcher, so a blocked policy
        borrows the first factory matcher's embedding space (every
        LEAPME factory of one grid shares it).  ``None`` under the null
        policy, or when no factory exposes embeddings -- resolution then
        fails with the policy's own configuration error.
        """
        if self.policy is None or self.policy.is_null:
            return None
        for factory in self.factories.values():
            embeddings = getattr(factory(), "embeddings", None)
            if embeddings is not None:
                return embeddings
        return None

    def store(self, dataset_index: int, matcher):
        """``matcher``'s shared store, built on first use.

        ``None`` for a matcher that keeps its own features.
        """
        build = getattr(matcher, "build_feature_store", None)
        embeddings = getattr(matcher, "embeddings", None)
        if (
            build is None
            or embeddings is None
            or getattr(matcher, "attach_store", None) is None
        ):
            return None
        key = (dataset_index, id(embeddings))
        store = self.stores.get(key)
        if store is None:
            store = self.stores[key] = build(
                self.datasets[dataset_index], self.universe(dataset_index)
            )
        return store

    def matcher(self, cell: GridCell):
        """A fresh, prepared matcher for ``cell``."""
        matcher = self.factories[cell.label]()
        store = self.store(cell.dataset_index, matcher)
        if store is None:
            matcher.prepare(self.datasets[cell.dataset_index])
        else:
            matcher.attach_store(store)
        return matcher


def _item_state(shared: _SharedFeatures, retry_policy, start_queue=None) -> dict:
    """What a process executing items keeps: features, policy, matcher."""
    return dict(
        shared=shared,
        retry_policy=retry_policy,
        start_queue=start_queue,
        cell_matcher=None,
    )


# A pool worker's item state, set by the pool initializer.  Module-level
# because worker functions must be importable; an in-process run keeps
# its own state and never touches this.
_STATE: dict = {}


def _init_worker_process(shared, retry_policy, start_queue) -> None:
    """Pool initializer run *in the worker*: signals, then item state.

    Workers ignore SIGINT (the parent's handler owns the Ctrl-C
    shutdown; workers are reaped by the supervisor) and reset SIGTERM to
    the default, since fork children would otherwise inherit the
    parent's drain-and-exit handler.
    """
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
    except (ValueError, OSError):  # pragma: no cover - exotic platforms
        pass
    _STATE.clear()
    _STATE.update(_item_state(shared, retry_policy, start_queue))


def _prebuild_shared(shared: _SharedFeatures, dataset_indices) -> None:
    """Build pair universes and feature stores once, in the parent.

    Only called when the pool uses the ``fork`` start method: children
    inherit ``shared`` instead of each rebuilding its contents.  Every
    factory's matcher is offered to the resolver, so each (dataset,
    embeddings) store the grid will ask for exists before the fork.
    """
    for dataset_index in sorted(dataset_indices):
        for factory in shared.factories.values():
            shared.store(dataset_index, factory())


def _execute_item(cell: GridCell, repetition: int, state: dict | None = None):
    """Run one repetition, return its ``_Outcome``.

    The entry point of pool workers (``state`` is the process's
    ``_STATE``) and of in-process runs, which pass their own.  The split
    is recomputed locally from ``(seed, repetition)``.  In a pool worker
    the first act is reporting the start to the supervisor's channel, so
    the ``--cell-timeout`` clock measures this repetition's own run
    time, never queueing or pool start-up.
    """
    state = _STATE if state is None else state
    start_queue = state["start_queue"]
    if start_queue is not None:
        try:
            start_queue.put((cell.index, repetition))
        except Exception:  # pragma: no cover # repro: noqa[REP005] start-report is best-effort; a worker must never die for telemetry
            pass
    shared: _SharedFeatures = state["shared"]
    cached = state["cell_matcher"]
    if cached is None or cached[0] != cell.index:
        # A process receives items in grid order, so the previous cell
        # is done: its matcher is replaced, not kept.
        cached = state["cell_matcher"] = (cell.index, shared.matcher(cell))
    matcher = cached[1]
    dataset = shared.datasets[cell.dataset_index]
    rng = np.random.default_rng((cell.settings.seed, repetition))
    split = split_sources(dataset, cell.settings.train_fraction, rng)
    return _run_repetition(
        matcher,
        dataset,
        cell.settings,
        repetition,
        split,
        state["retry_policy"],
        time.sleep,
        shared.universe(cell.dataset_index),
    )


def _pool_context():
    """Prefer ``fork``: cheap start-up and no pickling of factories."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context()


def _quarantine_outcome(item: tuple[int, int], reason: str, faults: int) -> _Outcome:
    """The structured failure recorded for a quarantined (cell, rep) item."""
    return _Outcome(
        status=STATUS_FAILED,
        error_type=reason,
        error_message=(
            f"quarantined by the pool supervisor after {faults} "
            f"{reason} fault(s)"
        ),
        attempts=faults,
    )


def run_grid(
    factories: dict[str, "callable"],
    datasets: list[Dataset],
    *,
    train_fractions: tuple[float, ...],
    repetitions: int,
    seed: int,
    negative_ratio: float,
    journal: RunJournal | None,
    resume: bool,
    retry_policy: RetryPolicy | None,
    workers: int,
    supervisor: SupervisorPolicy | None = None,
    candidate_policy=None,
) -> list[ExperimentResult]:
    """Run the experiment grid; the engine behind ``ExperimentRunner.run``.

    ``workers == 1`` runs the pending items in this process, in grid
    order; more run them on that many supervised processes, with
    ``supervisor`` tuning the failure model (worker-death respawns,
    per-item deadlines, poison quarantine).  Results and journal bytes
    do not depend on the worker count.
    """
    retry_policy = retry_policy if retry_policy is not None else RetryPolicy()

    cells: list[GridCell] = []
    results: list[ExperimentResult] = []
    keys: list[str | None] = []
    restored: list[dict] = []
    for dataset_index, dataset in enumerate(datasets):
        for fraction in train_fractions:
            settings = RunSettings(
                train_fraction=fraction,
                repetitions=repetitions,
                negative_ratio=negative_ratio,
                seed=seed,
            )
            for label in factories:
                cell = GridCell(
                    index=len(cells),
                    dataset_index=dataset_index,
                    label=label,
                    settings=settings,
                )
                cells.append(cell)
                results.append(
                    ExperimentResult(
                        matcher_name=label,
                        dataset_name=dataset.name,
                        settings=settings,
                        train_sources=train_source_count(
                            len(dataset.sources()), fraction
                        ),
                    )
                )
                key = (
                    run_key(label, dataset, settings)
                    if journal is not None
                    else None
                )
                keys.append(key)
                restored.append(
                    journal.entries(key)
                    if (journal is not None and resume)
                    else {}
                )

    # Grid order: cells outermost, repetitions innermost.
    pending: list[tuple[int, int]] = [
        (cell.index, repetition)
        for cell in cells
        for repetition in range(repetitions)
        if not (
            (entry := restored[cell.index].get(repetition)) is not None
            and entry.status != STATUS_FAILED
        )
    ]

    drain = _SerialDrain(cells, results, keys, restored, journal)
    outcomes: dict[tuple[int, int], _Outcome] = {}
    shared = _SharedFeatures(factories, datasets, candidate_policy)

    def on_complete(item: tuple[int, int], outcome) -> None:
        # Progressive drain: each completion extends the journaled
        # grid-order prefix as far as it now reaches.
        outcomes[item] = outcome
        drain.advance(outcomes)

    in_process = _item_state(shared, retry_policy)

    def run_in_process(item: tuple[int, int]):
        return _execute_item(cells[item[0]], item[1], in_process)

    if workers == 1:
        for item in pending:
            on_complete(item, run_in_process(item))
    elif pending:
        _run_pool(
            cells,
            pending,
            shared,
            retry_policy,
            workers,
            supervisor if supervisor is not None else SupervisorPolicy(),
            on_complete,
            run_in_process,
        )
    drain.advance(outcomes)

    if candidate_policy is not None and not candidate_policy.is_null:
        # Every cell carries its dataset's candidate-generation quality.
        # A universe this process never needed (spawn workers, fully
        # resumed runs) is built here for its stats only.
        for cell, result in zip(cells, results):
            stats = shared.universe(cell.dataset_index).blocking_stats()
            result.pair_recall = stats["pair_recall"]
            result.reduction_ratio = stats["reduction_ratio"]
    return results


def _run_pool(
    cells: list[GridCell],
    pending: list[tuple[int, int]],
    shared: _SharedFeatures,
    retry_policy: RetryPolicy,
    workers: int,
    policy: SupervisorPolicy,
    on_complete,
    run_in_process,
) -> None:
    """Run ``pending`` on ``workers`` supervised processes.

    SIGINT/SIGTERM set the supervisor's stop event for the duration;
    ``run_in_process`` is the degraded path once pool deaths exhaust
    the respawn budget.
    """
    context = _pool_context()
    if context.get_start_method() == "fork":
        _prebuild_shared(shared, {cells[index].dataset_index for index, _ in pending})
    stop = threading.Event()
    received_signum: int | None = None

    def _on_signal(signum, frame) -> None:
        # Async-signal-safe: a plain nonlocal rebind (last signal
        # wins) instead of a list append inside the handler.
        nonlocal received_signum
        received_signum = signum
        stop.set()

    installed: dict[int, object] = {}
    if threading.current_thread() is threading.main_thread():
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                installed[signum] = signal.signal(signum, _on_signal)
            except (ValueError, OSError):  # pragma: no cover
                pass

    # Workers report the (cell, repetition) they are *about to run*
    # on this queue; the supervisor's deadline clock starts at that
    # report, not at submission.  One fresh queue per pool
    # generation, so a dead generation's reports can never start
    # the clock on a re-dispatched item.
    start_queue_box: list = [None]

    def make_pool() -> ProcessPoolExecutor:
        start_queue_box[0] = context.Queue()
        return ProcessPoolExecutor(
            max_workers=min(workers, len(pending)),
            mp_context=context,
            initializer=_init_worker_process,
            initargs=(shared, retry_policy, start_queue_box[0]),
        )

    def poll_started() -> list[tuple[int, int]]:
        started: list[tuple[int, int]] = []
        start_queue = start_queue_box[0]
        while start_queue is not None:
            try:
                started.append(start_queue.get_nowait())
            except Empty:
                break
        return started

    pool_supervisor = PoolSupervisor(
        pending,
        make_pool=make_pool,
        submit=lambda pool, item: pool.submit(
            _execute_item, cells[item[0]], item[1]
        ),
        on_complete=on_complete,
        quarantine_outcome=_quarantine_outcome,
        run_serial=run_in_process,
        window=min(workers, len(pending)),
        policy=policy,
        stop=stop,
        poll_started=poll_started,
    )
    try:
        pool_supervisor.run()
    except GridInterrupted as interrupted:
        # Outcomes harvested during shutdown are already journaled by
        # the progressive drain; attach the signal for the caller's
        # exit code.
        interrupted.signum = received_signum
        raise
    finally:
        for signum, previous in installed.items():
            signal.signal(signum, previous)


class _SerialDrain:
    """Incremental grid-order fold of restored entries and outcomes.

    Maintains a cursor over the flattened (cell, repetition) grid.  Each
    :meth:`advance` applies journal-restored entries and any available
    outcomes from the cursor forward, journaling executed outcomes in
    grid order whatever order they completed in, and stops at the first
    item that is neither restored nor completed.  Progressive calls
    therefore never double-apply anything.
    """

    def __init__(
        self,
        cells: list[GridCell],
        results: list[ExperimentResult],
        keys: list[str | None],
        restored: list[dict],
        journal: RunJournal | None,
    ) -> None:
        self._results = results
        self._keys = keys
        self._restored = restored
        self._journal = journal
        self._slots: list[tuple[int, int]] = [
            (cell.index, repetition)
            for cell in cells
            for repetition in range(cell.settings.repetitions)
        ]
        self._position = 0

    def advance(self, outcomes: dict[tuple[int, int], _Outcome]) -> None:
        while self._position < len(self._slots):
            cell_index, repetition = self._slots[self._position]
            entry = self._restored[cell_index].get(repetition)
            if entry is not None and entry.status != STATUS_FAILED:
                _apply_journal_entry(self._results[cell_index], entry)
                self._position += 1
                continue
            outcome = outcomes.get((cell_index, repetition))
            if outcome is None:
                return
            del outcomes[(cell_index, repetition)]
            _apply_outcome(self._results[cell_index], repetition, outcome)
            if self._journal is not None:
                _journal_outcome(
                    self._journal, self._keys[cell_index], repetition, outcome
                )
            self._position += 1
