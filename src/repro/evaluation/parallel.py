"""The grid engine: one plan, run in this process or on a process pool.

``ExperimentRunner.run`` lands here for every worker count, and
``evaluate_matcher`` as a one-cell grid at ``workers=1``.  The grid's
unit of work is one source split: a :class:`SplitItem` is a (dataset,
training-source count, repetition) with that split's pending cells.
Items run in plan order -- dataset, fraction, repetition, matcher --
and (cell, repetition) slots already in the journal are restored
instead of run.  Fractions that round to one training-source count
draw the same split, so their cells share one item: each label is
fitted and scored once and its outcome copied to every cell that
shares it.  The pending items go through :func:`_execute_item`: in
this process when ``workers == 1``, on a supervised
``ProcessPoolExecutor`` otherwise.  Either way the parent folds every
outcome through one :class:`_SerialDrain`, slot by slot in plan order,
and is the only process that touches the journal.

Why every worker count gives the same bytes:

* every repetition's randomness derives from ``(seed, repetition
  [, attempt])`` alone -- the split from ``default_rng((seed,
  repetition))``, the training sample from ``default_rng([seed,
  repetition, 1709 + attempt-1])`` -- so whichever process runs an
  item computes the same numbers;
* every item runs the same :func:`_execute_item` and yields picklable
  ``_Outcome`` values per cell; the drain applies and journals them in
  plan order, so journal files match byte for byte.  A one-matcher
  grid keeps the (cell, repetition) order and bytes it always had;
* workers never write the journal: durability stays a single-writer,
  fsynced append stream, and journaled repetitions are restored in the
  parent and never run.

A ``BaseException`` escaping a repetition (e.g. the fault harness's
``SimulatedKill``) propagates at that item's position in plan order --
at once in-process, through ``future.result()`` from a pool; later
completed items are discarded unjournaled, so the journal holds
exactly the prefix before the kill.  The pool therefore dispatches in
plan order too: the supervisor raises a kill at the item's place in
its list, and any other order would make the journaled prefix depend
on the worker count.

Each item runs :func:`~repro.evaluation.runner._run_split` to the end
in the process that picked it up: the test rows and the attempt-1
training sample are resolved once, every cell is fitted, and the LEAPME
cells that share a feature store are scored in one pass that gathers
and scales each row block once.  Per-cell semantics are those of
:func:`~repro.evaluation.runner._run_repetition`: a cell whose attempt
1 raises continues its own retry loop.  The pool's ``cell_timeout``
deadline is per (cell, repetition), so an item of k cells gets k
deadlines.  Nothing in-process can enforce a deadline, so
``ExperimentRunner.run`` rejects one at ``workers=1``.

Shared features: each executing process resolves a dataset's pair
universe, and each (dataset, embeddings) feature store, at most once
through one :class:`_SharedFeatures`; a repetition's pair sets are row
arrays over its dataset's universe.  Under the ``fork`` start method
the parent prebuilds every pending dataset's universe and stores
before creating the pool; a prebuilt store is the staged pipeline's
full package -- the :class:`~repro.core.pipeline.FeatureSchema`, the
columnar float32 per-property stage outputs, the property rows and the
name-pair distance table, all read-only and about 2 MB on cameras --
so children inherit them through copy-on-write pages and the
construction cost is paid once per grid.  Pair rows are computed from
those tables on each gather, in the process that gathers.
Under ``spawn`` each worker builds its own, at most once per dataset.

Failure model: the pool is run by
:class:`~repro.evaluation.supervisor.PoolSupervisor` -- a dead worker
respawns the pool and re-dispatches its items, a hung item is killed
at its deadline, poison items are quarantined as one structured
``failed`` journal record per cell, and SIGINT/SIGTERM drain the
completed plan-order prefix into the journal before raising
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
from dataclasses import dataclass, replace
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
    _run_split,
)
from repro.evaluation.supervisor import PoolSupervisor, SupervisorPolicy


@dataclass(frozen=True)
class GridCell:
    """One (dataset, fraction, matcher) cell of the flattened grid."""

    index: int
    dataset_index: int
    label: str
    settings: RunSettings


@dataclass(frozen=True)
class SplitItem:
    """One unit of grid work: a source split and its pending cells.

    A split is fixed by ``(dataset, training-source count,
    repetition)``: :func:`~repro.data.splits.split_sources` draws from
    ``default_rng((seed, repetition))`` and the count alone, so
    fractions that round to one count share the item.  ``cells`` are
    the split's pending cells in plan order.
    """

    dataset_index: int
    train_sources: int
    repetition: int
    cells: tuple[GridCell, ...]

    @property
    def key(self) -> tuple[int, int, int]:
        return (self.dataset_index, self.train_sources, self.repetition)


class _SharedFeatures:
    """The pair universes and feature stores one process shares.

    A dataset's universe is enumerated once, under the grid's candidate
    policy.  Matchers exposing ``build_feature_store``/``attach_store``
    share one store per ``(dataset_index, id(embeddings))``, built on
    that universe; ids survive fork, so a worker's factory-made matcher
    finds the store the parent prebuilt.  A matcher whose own store
    already serves the dataset (one prepared before the grid) keeps it.
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

        ``None`` for a matcher that keeps its own features: one without
        a store route, or one whose own store serves the dataset.
        """
        build = getattr(matcher, "build_feature_store", None)
        embeddings = getattr(matcher, "embeddings", None)
        own = getattr(matcher, "store", None)
        if (
            build is None
            or embeddings is None
            or getattr(matcher, "attach_store", None) is None
            or (own is not None and own.serves(self.datasets[dataset_index]))
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
        """``cell``'s factory matcher, attached to the shared store or prepared.

        Preparing is a no-op for a matcher whose own store serves the
        dataset, so it keeps that store and nothing is built.
        """
        matcher = self.factories[cell.label]()
        store = self.store(cell.dataset_index, matcher)
        if store is None:
            matcher.prepare(self.datasets[cell.dataset_index])
        else:
            matcher.attach_store(store)
        return matcher


def _item_state(
    shared: _SharedFeatures, retry_policy, start_queue=None, sleep=time.sleep
) -> dict:
    """What a process executing items keeps: features, policy, matchers.

    ``sleep`` waits out retry backoff; pool workers keep ``time.sleep``.
    """
    return dict(
        shared=shared,
        retry_policy=retry_policy,
        start_queue=start_queue,
        sleep=sleep,
        matchers={},
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


def _execute_item(item: SplitItem, state: dict | None = None) -> dict[int, _Outcome]:
    """Run one split item, return each of its cells' ``_Outcome``.

    The entry point of pool workers (``state`` is the process's
    ``_STATE``) and of in-process runs, which pass their own.  The split
    is recomputed locally from ``(seed, repetition)``.  In a pool worker
    the first act is reporting the start to the supervisor's channel, so
    the ``--cell-timeout`` clock measures this item's own run time,
    never queueing or pool start-up.

    Each matcher label runs once, through
    :func:`~repro.evaluation.runner._run_split`; a cell whose fraction
    collapsed onto an earlier cell's split gets a copy of that label's
    outcome, without timings, so the work is counted once.
    """
    state = _STATE if state is None else state
    start_queue = state["start_queue"]
    if start_queue is not None:
        try:
            start_queue.put(item.key)
        except Exception:  # pragma: no cover # repro: noqa[REP005] start-report is best-effort; a worker must never die for telemetry
            pass
    shared: _SharedFeatures = state["shared"]
    runs: dict[str, GridCell] = {}
    for cell in item.cells:
        runs.setdefault(cell.label, cell)
    # A process keeps the matchers of the split it ran last: the next
    # repetition of the same cells reuses them, any other cell's go.
    kept = state["matchers"]
    matchers = state["matchers"] = {
        cell.index: kept[cell.index] if cell.index in kept else shared.matcher(cell)
        for cell in runs.values()
    }
    dataset = shared.datasets[item.dataset_index]
    settings = item.cells[0].settings
    rng = np.random.default_rng((settings.seed, item.repetition))
    split = split_sources(dataset, settings.train_fraction, rng)
    outcomes = _run_split(
        list(matchers.values()),
        dataset,
        settings,
        item.repetition,
        split,
        state["retry_policy"],
        state["sleep"],
        shared.universe(item.dataset_index),
    )
    by_label = dict(zip(runs, outcomes))
    return {
        cell.index: (
            by_label[cell.label]
            if runs[cell.label] is cell
            else replace(by_label[cell.label], timings=None)
        )
        for cell in item.cells
    }


def _pool_context():
    """Prefer ``fork``: cheap start-up and no pickling of factories."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context()


def _quarantine_outcome(item: SplitItem, reason: str, faults: int) -> dict[int, _Outcome]:
    """The structured failure recorded for each cell of a quarantined item."""
    failure = _Outcome(
        status=STATUS_FAILED,
        error_type=reason,
        error_message=(
            f"quarantined by the pool supervisor after {faults} "
            f"{reason} fault(s)"
        ),
        attempts=faults,
    )
    return {cell.index: failure for cell in item.cells}


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
    sleep=time.sleep,
) -> list[ExperimentResult]:
    """Run the experiment grid; the engine behind ``ExperimentRunner.run``.

    ``evaluate_matcher`` runs it as a one-cell grid.  ``workers == 1``
    runs the pending split items in this process, in plan order; more
    run them on that many supervised processes, with ``supervisor``
    tuning the failure model (worker-death respawns, per-cell
    deadlines, poison quarantine).  Results and journal bytes do not
    depend on the worker count.  ``sleep`` waits out retry backoff for
    the items run in this process.
    """
    retry_policy = retry_policy if retry_policy is not None else RetryPolicy()

    cells: list[GridCell] = []
    results: list[ExperimentResult] = []
    keys: list[str | None] = []
    restored: list[dict] = []
    # Plan order: dataset, fraction, repetition, matcher.  ``slots``
    # is the order the drain journals (cell, repetition) outcomes in.
    slots: list[tuple[int, int]] = []
    items: dict[tuple[int, int, int], list[GridCell]] = {}
    for dataset_index, dataset in enumerate(datasets):
        for fraction in train_fractions:
            settings = RunSettings(
                train_fraction=fraction,
                repetitions=repetitions,
                negative_ratio=negative_ratio,
                seed=seed,
            )
            sources = train_source_count(len(dataset.sources()), fraction)
            group: list[GridCell] = []
            for label in factories:
                cell = GridCell(
                    index=len(cells),
                    dataset_index=dataset_index,
                    label=label,
                    settings=settings,
                )
                group.append(cell)
                cells.append(cell)
                results.append(
                    ExperimentResult(
                        matcher_name=label,
                        dataset_name=dataset.name,
                        settings=settings,
                        train_sources=sources,
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
            for repetition in range(repetitions):
                for cell in group:
                    slots.append((cell.index, repetition))
                    entry = restored[cell.index].get(repetition)
                    if entry is None or entry.status == STATUS_FAILED:
                        items.setdefault(
                            (dataset_index, sources, repetition), []
                        ).append(cell)
    # Items run in plan order: the position of each split's first
    # pending cell.
    plan = {
        key: SplitItem(*key, cells=tuple(pending))
        for key, pending in items.items()
    }

    drain = _SerialDrain(slots, results, keys, restored, journal)
    outcomes: dict[tuple[int, int], _Outcome] = {}
    shared = _SharedFeatures(factories, datasets, candidate_policy)

    def on_complete(key: tuple[int, int, int], item_outcomes: dict) -> None:
        # Progressive drain: each completion extends the journaled
        # plan-order prefix as far as it now reaches.
        for cell_index, outcome in item_outcomes.items():
            outcomes[(cell_index, key[2])] = outcome
        drain.advance(outcomes)

    in_process = _item_state(shared, retry_policy, sleep=sleep)

    def run_in_process(key: tuple[int, int, int]) -> dict:
        return _execute_item(plan[key], in_process)

    if workers == 1:
        for key in plan:
            on_complete(key, run_in_process(key))
    elif plan:
        _run_pool(
            plan,
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
    plan: dict[tuple[int, int, int], SplitItem],
    shared: _SharedFeatures,
    retry_policy: RetryPolicy,
    workers: int,
    policy: SupervisorPolicy,
    on_complete,
    run_in_process,
) -> None:
    """Run the ``plan``'s split items on ``workers`` supervised processes.

    The supervisor sees item keys, dispatched in plan order.  An item of
    k cells gets k cell deadlines, and a quarantined item fails each of
    its cells.  SIGINT/SIGTERM set the supervisor's stop event for the
    duration; ``run_in_process`` is the degraded path once pool deaths
    exhaust the respawn budget.
    """
    context = _pool_context()
    if context.get_start_method() == "fork":
        _prebuild_shared(shared, {item.dataset_index for item in plan.values()})
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

    # Workers report the item key they are *about to run*
    # on this queue; the supervisor's deadline clock starts at that
    # report, not at submission.  One fresh queue per pool
    # generation, so a dead generation's reports can never start
    # the clock on a re-dispatched item.
    start_queue_box: list = [None]

    def make_pool() -> ProcessPoolExecutor:
        start_queue_box[0] = context.Queue()
        return ProcessPoolExecutor(
            max_workers=min(workers, len(plan)),
            mp_context=context,
            initializer=_init_worker_process,
            initargs=(shared, retry_policy, start_queue_box[0]),
        )

    def poll_started() -> list[tuple[int, int, int]]:
        started: list[tuple[int, int, int]] = []
        start_queue = start_queue_box[0]
        while start_queue is not None:
            try:
                started.append(start_queue.get_nowait())
            except Empty:
                break
        return started

    pool_supervisor = PoolSupervisor(
        list(plan),
        make_pool=make_pool,
        submit=lambda pool, key: pool.submit(_execute_item, plan[key]),
        on_complete=on_complete,
        quarantine_outcome=lambda key, reason, faults: _quarantine_outcome(
            plan[key], reason, faults
        ),
        run_serial=run_in_process,
        window=min(workers, len(plan)),
        policy=policy,
        stop=stop,
        poll_started=poll_started,
        deadline_units=lambda key: len(plan[key].cells),
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
    """Incremental plan-order fold of restored entries and outcomes.

    Maintains a cursor over the grid's (cell, repetition) slots in plan
    order -- dataset, fraction, repetition, matcher -- so each finished
    split is journaled as soon as every split before it is.  Each
    :meth:`advance` applies journal-restored entries and any available
    outcomes from the cursor forward, journaling executed outcomes in
    plan order whatever order they completed in, and stops at the first
    slot that is neither restored nor completed.  Progressive calls
    therefore never double-apply anything.
    """

    def __init__(
        self,
        slots: list[tuple[int, int]],
        results: list[ExperimentResult],
        keys: list[str | None],
        restored: list[dict],
        journal: RunJournal | None,
    ) -> None:
        self._slots = slots
        self._results = results
        self._keys = keys
        self._restored = restored
        self._journal = journal
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
