"""The follow-mode daemon: watch, admit, retry, fuse -- crash-safely.

:class:`FollowDaemon` ties the ingestion pieces together into one
supervised loop:

* the :class:`~repro.ingest.watcher.SourceWatcher` admits source files
  only after their content settles (a partially-written CSV is never
  read);
* every lifecycle transition is durably journaled
  (:class:`~repro.ingest.journal.IngestJournal`) *before* the daemon
  moves on, so SIGKILL at any point leaves a replayable record;
* transient read failures get deterministic bounded-backoff retries
  (:class:`~repro.evaluation.runner.RetryPolicy` -- the same sha256
  jitter as the experiment grid); sources that keep failing are
  quarantined with a structured reason and *never stall the loop*:
  retry readiness is a per-file deadline on the monotonic clock
  (REP003), checked each poll, not a sleep;
* SIGINT/SIGTERM set a stop event; the in-flight batch is drained and
  journaled, then :class:`~repro.errors.IngestInterrupted` propagates
  so the CLI exits ``128 + signum`` with a ``--resume`` hint;
* ``resume=True`` replays the journal's fused records -- in fusion
  order, through the same deterministic pipeline -- before following
  the directory again, so a resumed run's matches and clusters are
  bit-identical to a cold rebuild over the same sources.

The loop itself obeys the invariants the REP010 lint rule enforces on
watch/ingest modules: no ``time.sleep`` (the pause is
``stop_event.wait(poll_interval)``, interruptible by signals) and no
unconditional spin (every iteration checks the stop event and the
optional batch/idle bounds).
"""

from __future__ import annotations

import hashlib
import signal
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from repro.core.pipeline import flush_persistent_distances
from repro.data.model import Dataset
from repro.errors import (
    DataError,
    IngestInterrupted,
    ReproError,
    TransientDataError,
)
from repro.evaluation.runner import RetryPolicy
from repro.ingest.journal import (
    REASON_DUPLICATE,
    REASON_POISON,
    REASON_RETRIES_EXHAUSTED,
    STATUS_ADMITTED,
    STATUS_DISCOVERED,
    STATUS_FEATURIZED,
    STATUS_FUSED,
    STATUS_QUARANTINED,
    STATUS_RETRYING,
    IngestJournal,
    SourceEvent,
)
from repro.ingest.pipeline import IngestPipeline
from repro.ingest.watcher import (
    SourceWatcher,
    alignment_sidecar,
    source_fingerprint,
)


@dataclass
class _PendingSource:
    """An admitted file waiting to be (re)ingested."""

    fingerprint: str
    attempts: int = 0
    #: Monotonic-clock instant from which the next attempt may run.
    ready_at: float = 0.0


def _file_repetition(file: str) -> int:
    """Stable per-file index for the retry policy's deterministic jitter."""
    return int.from_bytes(hashlib.sha256(file.encode("utf-8")).digest()[:4], "big")


class FollowDaemon:
    """Follow a directory, fusing admitted sources as they arrive.

    Parameters
    ----------
    directory:
        The followed directory; source CSVs (plus optional
        ``X.alignment.csv`` sidecars) are dropped here.
    pipeline:
        A bootstrapped :class:`IngestPipeline` (call
        :meth:`IngestPipeline.bootstrap` first).
    journal:
        The ingestion journal; shared between runs for ``--resume``.
    poll_interval:
        Seconds between directory polls (the stop event cuts the wait
        short, so shutdown latency is not bounded by it).
    settle_polls:
        Stability requirement forwarded to the watcher.
    retry_policy:
        Bounded retry/backoff for failing sources; defaults to the
        grid's default policy (one retry, no backoff).
    seed:
        Seeds the retry jitter (with the per-file repetition index).
    fault_plan:
        Optional :class:`repro.testing.faults.StageFaultPlan`; its
        ``maybe_exit`` hook fires after each journal append so chaos
        tests can kill the process at exact journaled stages.
    stop_event:
        External stop control (a fresh event is created if omitted).
    clock:
        Monotonic time source; injectable so tests can drive retry
        deadlines without real waiting.
    """

    def __init__(
        self,
        directory: str | Path,
        pipeline: IngestPipeline,
        journal: IngestJournal,
        *,
        poll_interval: float = 0.5,
        settle_polls: int = 2,
        retry_policy: RetryPolicy | None = None,
        seed: int = 0,
        fault_plan=None,
        stop_event: threading.Event | None = None,
        clock=time.monotonic,
    ) -> None:
        self.directory = Path(directory)
        self.pipeline = pipeline
        self.journal = journal
        self.poll_interval = poll_interval
        self.retry_policy = (
            retry_policy if retry_policy is not None else RetryPolicy()
        )
        self.seed = seed
        self.fault_plan = fault_plan
        self.stop_event = stop_event if stop_event is not None else threading.Event()
        self.clock = clock
        ignore = {
            path.name
            for path in (pipeline.matches_path, pipeline.clusters_path, journal.path)
            if path.parent == self.directory
        }
        self.watcher = SourceWatcher(
            self.directory, settle_polls=settle_polls, ignore=frozenset(ignore)
        )
        #: (file, fingerprint) keys fully handled (fused or quarantined).
        self._done: set[tuple[str, str]] = set()
        #: Keys ever journaled, to keep re-discoveries from re-appending.
        self._seen: set[tuple[str, str]] = set()
        self._pending: dict[str, _PendingSource] = {}
        self._received_signal: int | None = None

    # -- resume --------------------------------------------------------------
    def resume(self) -> int:
        """Replay the journal's fused sources; returns how many.

        Each fused record's file must still be present with the journaled
        fingerprint -- resume re-reads the *same bytes* through the same
        pipeline, which is what makes the outputs bit-identical to a
        cold rebuild.  Quarantined sources stay quarantined (their keys
        are marked done); everything that died earlier in the lifecycle
        is simply re-discovered by the watcher.
        """
        replayed = 0
        latest = self.journal.latest()
        for key, event in latest.items():
            self._seen.add(key)
            if event.status == STATUS_QUARANTINED:
                self._done.add(key)
        for event in self.journal.fused_in_order():
            path = self.directory / event.file
            if not path.exists():
                raise DataError(
                    f"cannot resume: fused source {event.file} is missing "
                    f"from {self.directory}"
                )
            current = source_fingerprint(path)
            if current != event.fingerprint:
                raise DataError(
                    f"cannot resume: {event.file} changed since it was fused "
                    f"(journal {event.fingerprint}, directory {current})"
                )
            batch = self.pipeline.featurize(
                path, alignment_sidecar(path), event.fingerprint
            )
            self.pipeline.fuse(batch)
            self._done.add(event.key)
            replayed += 1
        return replayed

    # -- the loop ------------------------------------------------------------
    def run(
        self,
        *,
        resume: bool = False,
        max_batches: int | None = None,
        max_idle_polls: int | None = None,
        install_signal_handlers: bool = True,
    ) -> dict[str, int]:
        """Follow the directory until stopped or bounded out.

        ``max_batches`` stops after that many *newly* fused batches;
        ``max_idle_polls`` stops after that many consecutive polls with
        no discovery, admission, or due retry (both ``None`` means run
        until a signal).  Returns
        ``{"replayed": r, "fused": n, "quarantined": q, "polls": p}``.
        """
        replayed = self.resume() if resume else 0
        installed: dict[int, object] = {}

        def _on_signal(signum: int, frame) -> None:
            # Async-signal-safe: last signal wins (the interrupt report
            # names the most recent one), written as a plain slot
            # assignment -- no container mutation inside a handler.
            self._received_signal = signum
            self.stop_event.set()

        if (
            install_signal_handlers
            and threading.current_thread() is threading.main_thread()
        ):
            for signum in (signal.SIGINT, signal.SIGTERM):
                try:
                    installed[signum] = signal.signal(signum, _on_signal)
                except (ValueError, OSError):  # pragma: no cover - exotic host
                    pass
        fused = quarantined = polls = idle = 0
        try:
            while True:
                self._check_stop()
                result = self.watcher.poll()
                polls += 1
                progressed = False
                for file, fingerprint in result.discovered:
                    key = (file, fingerprint)
                    progressed = True
                    if key in self._seen:
                        continue
                    self._seen.add(key)
                    self.journal.append(
                        SourceEvent(file, fingerprint, STATUS_DISCOVERED)
                    )
                for file, fingerprint in result.admitted:
                    key = (file, fingerprint)
                    if key in self._done:
                        continue
                    progressed = True
                    self._seen.add(key)
                    self.journal.append(
                        SourceEvent(file, fingerprint, STATUS_ADMITTED)
                    )
                    self._maybe_fault("admitted")
                    self._pending[file] = _PendingSource(
                        fingerprint=fingerprint, ready_at=self.clock()
                    )
                for file in sorted(self._pending):
                    if self.stop_event.is_set():
                        break
                    entry = self._pending.get(file)
                    if entry is None or entry.ready_at > self.clock():
                        continue
                    progressed = True
                    outcome = self._attempt(file, entry)
                    fused += outcome == "fused"
                    quarantined += outcome == "quarantined"
                    if (
                        max_batches is not None
                        and fused >= max_batches
                    ):
                        break
                if max_batches is not None and fused >= max_batches:
                    break
                self._check_stop()
                idle = 0 if progressed else idle + 1
                if (
                    max_idle_polls is not None
                    and idle >= max_idle_polls
                    and not self._pending
                ):
                    break
                self.stop_event.wait(self.poll_interval)
        finally:
            # Drain durability: whatever ended the loop -- SIGTERM,
            # bounds, an error, IngestInterrupted from _check_stop --
            # persist distance rows computed since the last batch
            # boundary so a warm restart recomputes nothing.  (The
            # ingest journal needs no counterpart: every append is
            # already individually fsynced.)  No-op when no persistent
            # cache is wired.
            flush_persistent_distances()
            for signum, previous in installed.items():
                signal.signal(signum, previous)
        return {
            "replayed": replayed,
            "fused": fused,
            "quarantined": quarantined,
            "polls": polls,
        }

    def _check_stop(self) -> None:
        if not self.stop_event.is_set():
            return
        signum = self._received_signal
        raise IngestInterrupted(
            "follow loop stopped; every fused batch is journaled",
            signum=signum,
        )

    def _maybe_fault(self, stage: str) -> None:
        if self.fault_plan is not None:
            self.fault_plan.maybe_exit(stage)

    # -- one ingestion attempt ----------------------------------------------
    def _attempt(self, file: str, entry: _PendingSource) -> str:
        """Try to ingest one admitted file; returns the outcome.

        Outcomes: ``"fused"``, ``"quarantined"``, ``"retrying"`` (a
        later poll re-attempts), or ``"reset"`` (the file changed or
        vanished after admission and goes back to the watcher, no
        attempt charged).
        """
        path = self.directory / file
        try:
            current = source_fingerprint(path)
        except OSError:
            del self._pending[file]
            return "reset"
        if current != entry.fingerprint:
            # The writer came back after admission: the watcher has (or
            # will have) reset its settle count; this admission is void.
            del self._pending[file]
            return "reset"
        attempt = entry.attempts + 1
        try:
            batch = self.pipeline.featurize(
                path, alignment_sidecar(path), entry.fingerprint
            )
            self.journal.append(
                SourceEvent(
                    file,
                    entry.fingerprint,
                    STATUS_FEATURIZED,
                    properties=batch.properties,
                    pairs=len(batch.pairs),
                )
            )
            self._maybe_fault("featurized")
            counts = self.pipeline.fuse(batch)
            self.journal.append(
                SourceEvent(
                    file,
                    entry.fingerprint,
                    STATUS_FUSED,
                    order=counts["order"],
                    properties=batch.properties,
                    pairs=len(batch.pairs),
                    matches=counts["matches"],
                )
            )
            self._maybe_fault("fused")
        except (TransientDataError, OSError) as error:
            return self._failed(
                file, entry, attempt, error, REASON_RETRIES_EXHAUSTED
            )
        except ReproError as error:
            if isinstance(error, DataError) and "already present" in str(error):
                # Re-dropping an integrated source name can never heal:
                # quarantine immediately without burning the budget.
                return self._quarantine(file, entry, REASON_DUPLICATE, error, attempt)
            return self._failed(file, entry, attempt, error, REASON_POISON)
        del self._pending[file]
        self._done.add((file, entry.fingerprint))
        return "fused"

    def _failed(
        self,
        file: str,
        entry: _PendingSource,
        attempt: int,
        error: Exception,
        reason: str,
    ) -> str:
        """Journal a failed attempt: schedule a retry or quarantine."""
        entry.attempts = attempt
        if attempt >= self.retry_policy.max_attempts:
            return self._quarantine(file, entry, reason, error, attempt)
        self.journal.append(
            SourceEvent(
                file,
                entry.fingerprint,
                STATUS_RETRYING,
                attempt=attempt,
                error_type=type(error).__name__,
                error=str(error),
            )
        )
        entry.ready_at = self.clock() + self.retry_policy.delay(
            attempt, seed=self.seed, repetition=_file_repetition(file)
        )
        return "retrying"

    def _quarantine(
        self,
        file: str,
        entry: _PendingSource,
        reason: str,
        error: Exception,
        attempts: int,
    ) -> str:
        self.journal.append(
            SourceEvent(
                file,
                entry.fingerprint,
                STATUS_QUARANTINED,
                reason=reason,
                attempt=attempts,
                error_type=type(error).__name__,
                error=str(error),
            )
        )
        del self._pending[file]
        self._done.add((file, entry.fingerprint))
        return "quarantined"


def cold_rebuild(
    matcher,
    files: list[Path],
    matches_path: str | Path,
    clusters_path: str | Path,
    *,
    base: Dataset | None = None,
    threshold: float | None = None,
    seed: int = 0,
    linkage: str = "max",
) -> IngestPipeline:
    """Build matches + clusters from scratch over ``files`` in order.

    The reference the chaos suite compares against: a followed run --
    however many times it crashed and resumed -- must produce outputs
    byte-identical to this single-process rebuild over the same fused
    sequence.
    """
    pipeline = IngestPipeline(
        matcher,
        matches_path,
        clusters_path,
        threshold=threshold,
        seed=seed,
        linkage=linkage,
    )
    pipeline.bootstrap(base)
    for path in files:
        path = Path(path)
        batch = pipeline.featurize(
            path, alignment_sidecar(path), source_fingerprint(path)
        )
        pipeline.fuse(batch)
    return pipeline
