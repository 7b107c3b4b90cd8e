"""Run journal: checkpoint/resume for the experiment runner.

The paper's protocol (Section V-B) multiplies 25 repetitions by 4
datasets by 9 feature configurations -- hours of compute that, without a
journal, a single crash throws away.  This module gives every
(matcher, dataset, settings) cell a durable append-only record of its
repetitions so an interrupted grid resumes exactly where it left off.

Format
------
The file format, durability and torn-tail handling are those of
:mod:`repro.journal`; the header is ``{"type": "journal", "version": 1}``.
Every subsequent line describes one repetition of one run cell::

    {"type": "repetition", "key": "...", "repetition": 3,
     "status": "ok", "tp": 10, "fp": 1, "fn": 2,
     "degradation": null, "attempts": 1}

``status`` is ``ok`` (quality recorded), ``skipped`` (no usable training
split) or ``failed`` (all retries exhausted; carries ``error_type`` and
``error``).  ``key`` identifies the cell -- see :func:`run_key` -- so one
journal file can serve a whole experiment grid.  Re-running a repetition
appends a fresh record; on read, the *last* record per (key, repetition)
wins.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace
from pathlib import Path

from repro.data.model import Dataset
from repro.evaluation.metrics import MatchQuality
from repro.journal import (
    JournalFile,
    event_from_record,
    event_record,
    fold_latest,
    malformed_record,
)

#: ``type`` value of the header line every run journal starts with.
JOURNAL_HEADER_TYPE = "journal"

STATUS_OK = "ok"
STATUS_SKIPPED = "skipped"
STATUS_FAILED = "failed"

#: ``error_type`` values of ``failed`` records written by the pool
#: supervisor rather than by in-process failure isolation: the
#: repetition was quarantined after repeatedly crashing or timing out
#: the worker pool.  Like any other ``failed`` record, a resumed run
#: re-attempts it.
REASON_WORKER_CRASH = "worker_crash"
REASON_TIMEOUT = "timeout"
QUARANTINE_REASONS = frozenset({REASON_WORKER_CRASH, REASON_TIMEOUT})


def run_key(matcher_name: str, dataset: Dataset, settings) -> str:
    """Stable identifier for one (matcher, dataset, settings) run cell.

    Hashes the matcher name, the dataset's content fingerprint and every
    protocol parameter that affects the repetition stream, so resuming
    with *any* changed knob starts a fresh cell instead of silently
    mixing incompatible repetitions.  A human-readable prefix keeps
    journal files greppable.
    """
    payload = json.dumps(
        {
            "matcher": matcher_name,
            "dataset": dataset.fingerprint(),
            "train_fraction": settings.train_fraction,
            "repetitions": settings.repetitions,
            "negative_ratio": settings.negative_ratio,
            "seed": settings.seed,
        },
        sort_keys=True,
    )
    digest = hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]
    return f"{matcher_name}|{dataset.name}|{digest}"


@dataclass(frozen=True)
class JournalEntry:
    """One repetition's outcome as recorded in (or read from) a journal."""

    key: str
    repetition: int
    status: str
    quality: MatchQuality | None = None
    degradation: str | None = None
    attempts: int = 1
    error_type: str | None = None
    error: str | None = None

    def to_record(self) -> dict:
        """JSON-serialisable journal line; ``quality`` flattens to tp/fp/fn."""
        record = event_record(replace(self, quality=None), "repetition")
        if self.quality is not None:
            record.update(
                tp=self.quality.true_positives,
                fp=self.quality.false_positives,
                fn=self.quality.false_negatives,
            )
        return record

    @classmethod
    def from_record(cls, record: dict) -> "JournalEntry":
        """Inverse of :meth:`to_record`."""
        quality = None
        if "tp" in record:
            with malformed_record("journal"):
                quality = MatchQuality(
                    true_positives=int(record["tp"]),
                    false_positives=int(record["fp"]),
                    false_negatives=int(record["fn"]),
                )
        return event_from_record(cls, record, "journal", quality=quality)


class RunJournal:
    """Append-only JSONL journal of experiment repetitions.

    One instance wraps one file path; the file is created (with its
    header line) on the first append.  Reading never requires the file
    to exist -- a missing journal is simply an empty one, so
    ``evaluate_matcher(..., journal=RunJournal(path))`` works identically
    for fresh and resumed runs.
    """

    def __init__(self, path: str | Path) -> None:
        self._file = JournalFile(path, JOURNAL_HEADER_TYPE, "a run journal")
        self.path = self._file.path

    def append(self, entry: JournalEntry) -> None:
        """Durably record one repetition outcome (a single fsynced line)."""
        self._file.append(entry.to_record())

    def _entries(self) -> list[JournalEntry]:
        return [
            JournalEntry.from_record(record)
            for record in self._file.records("repetition")
        ]

    def entries(self, key: str) -> dict[int, JournalEntry]:
        """Latest entry per repetition for one run cell (empty if none)."""
        return fold_latest(
            (
                JournalEntry.from_record(record)
                for record in self._file.records("repetition")
                if record.get("key") == key
            ),
            key=lambda entry: entry.repetition,
        )

    def keys(self) -> list[str]:
        """All run-cell keys present in the journal, in first-seen order."""
        return list(fold_latest(self._entries(), key=lambda entry: entry.key))

    def describe(self) -> str:
        """Post-mortem summary: per-status counts and the last failure.

        One line per run cell with ok / skipped / failed / quarantined /
        degraded counts (quarantined = ``failed`` records written by the
        pool supervisor, a subset of failed), followed by the most
        recently journaled failure among repetitions whose *latest*
        entry is still failed -- a failure that a resumed run later
        re-attempted successfully is history, not a finding, and is not
        reported.  Enough to diagnose a dead grid from
        ``repro describe --journal X`` alone.
        """
        # Latest entry per (key, repetition), with its journal position
        # so "last failure" means last *written* among still-failed ones.
        latest: dict[str, list[tuple[int, JournalEntry]]] = {}
        for position, entry in fold_latest(
            enumerate(self._entries()),
            key=lambda pair: (pair[1].key, pair[1].repetition),
        ).values():
            latest.setdefault(entry.key, []).append((position, entry))
        lines = [f"journal {self.path}:"]
        for key, repetitions in latest.items():
            per_status: dict[str, int] = {}
            degraded = 0
            quarantined = 0
            failures: list[tuple[int, JournalEntry]] = []
            for position, entry in repetitions:
                per_status[entry.status] = per_status.get(entry.status, 0) + 1
                if entry.degradation is not None:
                    degraded += 1
                if entry.status == STATUS_FAILED:
                    failures.append((position, entry))
                    if entry.error_type in QUARANTINE_REASONS:
                        quarantined += 1
            parts = [f"{per_status.get(STATUS_OK, 0)} ok"]
            if per_status.get(STATUS_SKIPPED):
                parts.append(f"{per_status[STATUS_SKIPPED]} skipped")
            if per_status.get(STATUS_FAILED):
                parts.append(f"{per_status[STATUS_FAILED]} failed")
            if quarantined:
                parts.append(f"{quarantined} quarantined")
            if degraded:
                parts.append(f"{degraded} degraded")
            lines.append(f"  {key}: " + ", ".join(parts))
            if failures:
                _, failure = max(failures, key=lambda pair: pair[0])
                lines.append(
                    f"    last failure: repetition {failure.repetition}: "
                    f"{failure.error_type}: {failure.error} "
                    f"(after {failure.attempts} attempt(s))"
                )
        if len(lines) == 1:
            lines.append("  (empty)")
        return "\n".join(lines)
