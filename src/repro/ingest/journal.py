"""Ingestion journal: the crash-safe record of a follow-mode run.

Every source file a :class:`~repro.ingest.daemon.FollowDaemon` touches
moves through a small state machine::

    discovered -> admitted -> featurized -> fused
                     |                        ^
                     +--> retrying -----------+
                     |       |
                     +--> quarantined

Each transition is one fsynced append to a :mod:`repro.journal` file,
so a process killed at any point leaves a journal whose *latest* record
per (file, fingerprint) names exactly how far that source got.
``--resume`` replays the ``fused`` records in fusion order --
re-ingesting the same bytes through the same deterministic pipeline --
and lands on matches and clusters bit-identical to a cold rebuild over
the same source set; everything not yet fused is simply re-discovered
by the watcher.

Format
------
The header is ``{"type": "ingest-journal", "version": 1}``.  Every
subsequent line describes one transition of one source file::

    {"type": "source", "file": "cameras_b.csv", "fingerprint": "9f2c...",
     "status": "fused", "order": 1, "properties": 7, "pairs": 21,
     "matches": 5}

``retrying`` records carry ``attempt``/``error_type``/``error``;
``quarantined`` records carry a structured ``reason`` plus the final
error and attempt count.  Sources are keyed by *(file name,
content fingerprint)*: a file whose bytes change after quarantine is a
new source with a fresh lifecycle, while re-appends for the same
fingerprint supersede each other (latest wins).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from repro.journal import JournalFile, event_from_record, event_record, fold_latest

INGEST_JOURNAL_TYPE = "ingest-journal"

STATUS_DISCOVERED = "discovered"
STATUS_ADMITTED = "admitted"
STATUS_RETRYING = "retrying"
STATUS_FEATURIZED = "featurized"
STATUS_FUSED = "fused"
STATUS_QUARANTINED = "quarantined"

#: Lifecycle order, used to render describe() lines deterministically.
STATUS_ORDER = (
    STATUS_DISCOVERED,
    STATUS_ADMITTED,
    STATUS_RETRYING,
    STATUS_FEATURIZED,
    STATUS_FUSED,
    STATUS_QUARANTINED,
)

#: Structured ``reason`` values of ``quarantined`` records.
REASON_POISON = "poison-source"
REASON_RETRIES_EXHAUSTED = "retry-budget-exhausted"
REASON_DUPLICATE = "duplicate-source"
QUARANTINE_REASONS = frozenset(
    {REASON_POISON, REASON_RETRIES_EXHAUSTED, REASON_DUPLICATE}
)


@dataclass(frozen=True)
class SourceEvent:
    """One source file's transition as recorded in (or read from) a journal."""

    file: str
    fingerprint: str
    status: str
    attempt: int | None = None
    error_type: str | None = None
    error: str | None = None
    reason: str | None = None
    order: int | None = None
    properties: int | None = None
    pairs: int | None = None
    matches: int | None = None

    @property
    def key(self) -> tuple[str, str]:
        """The (file, fingerprint) identity of the source this describes."""
        return (self.file, self.fingerprint)

    def to_record(self) -> dict:
        """JSON-serialisable journal line."""
        return event_record(self, "source")

    @classmethod
    def from_record(cls, record: dict) -> "SourceEvent":
        """Inverse of :meth:`to_record`."""
        return event_from_record(cls, record, "ingestion-journal")


class IngestJournal:
    """Append-only JSONL journal of source-ingestion transitions.

    One instance wraps one file path; the file is created (with its
    header line) on the first append.  Reading never requires the file
    to exist -- a missing journal is an empty one, so fresh and resumed
    follow runs construct it identically.
    """

    def __init__(self, path: str | Path) -> None:
        self._file = JournalFile(path, INGEST_JOURNAL_TYPE, "an ingestion journal")
        self.path = self._file.path

    def append(self, event: SourceEvent) -> None:
        """Durably record one transition (a single fsynced line)."""
        self._file.append(event.to_record())

    def events(self) -> list[SourceEvent]:
        """Every source transition, in append order (torn tail dropped)."""
        return [
            SourceEvent.from_record(record) for record in self._file.records("source")
        ]

    def latest(self) -> dict[tuple[str, str], SourceEvent]:
        """Latest event per (file, fingerprint), in first-seen order."""
        return fold_latest(self.events(), key=lambda event: event.key)

    def fused_in_order(self) -> list[SourceEvent]:
        """Sources whose latest status is ``fused``, by fusion order.

        The replay plan for ``--resume``: feeding these files through
        the pipeline again, in this order, reproduces the pre-crash
        state bit for bit.
        """
        fused = [
            event
            for event in self.latest().values()
            if event.status == STATUS_FUSED
        ]
        return sorted(fused, key=lambda event: event.order or 0)

    def quarantined(self) -> dict[tuple[str, str], SourceEvent]:
        """Sources whose latest status is ``quarantined``."""
        return {
            key: event
            for key, event in self.latest().items()
            if event.status == STATUS_QUARANTINED
        }

    def describe(self) -> str:
        """Post-mortem summary: per-source status, last failure, reasons.

        One line per (file, fingerprint) with its latest status and the
        counts that status carries, then aggregate per-status counts,
        the most recently journaled failure among sources that are
        still failing (retrying or quarantined -- a failure a later
        attempt recovered from is history, not a finding), and one line
        per quarantined source naming its structured reason.  Enough to
        diagnose a dead follow loop from ``repro describe --journal X``
        alone.
        """
        latest = fold_latest(enumerate(self.events()), key=lambda pair: pair[1].key)
        lines = [f"ingestion journal {self.path}:"]
        counts: dict[str, int] = {}
        failures: list[tuple[int, SourceEvent]] = []
        for position, event in latest.values():
            counts[event.status] = counts.get(event.status, 0) + 1
            if event.status in (STATUS_RETRYING, STATUS_QUARANTINED):
                failures.append((position, event))
            detail = [f"status={event.status}"]
            if event.order is not None:
                detail.append(f"order={event.order}")
            if event.properties is not None:
                detail.append(f"properties={event.properties}")
            if event.pairs is not None:
                detail.append(f"pairs={event.pairs}")
            if event.matches is not None:
                detail.append(f"matches={event.matches}")
            if event.reason is not None:
                detail.append(f"reason={event.reason}")
            lines.append(
                f"  {event.file} ({event.fingerprint}): " + ", ".join(detail)
            )
        if len(lines) == 1:
            lines.append("  (empty)")
            return "\n".join(lines)
        summary = [
            f"{counts[status]} {status}"
            for status in STATUS_ORDER
            if counts.get(status)
        ]
        lines.append("  totals: " + ", ".join(summary))
        if failures:
            _, failure = max(failures, key=lambda pair: pair[0])
            lines.append(
                f"  last failure: {failure.file}: "
                f"{failure.error_type}: {failure.error}"
                + (
                    f" (after {failure.attempt} attempt(s))"
                    if failure.attempt is not None
                    else ""
                )
            )
        for _, event in sorted(
            (pair for pair in latest.values() if pair[1].status == STATUS_QUARANTINED),
            key=lambda pair: pair[1].file,
        ):
            lines.append(
                f"  quarantined: {event.file}: {event.reason} "
                f"({event.error_type}: {event.error})"
            )
        return "\n".join(lines)
