"""Journal core: the one implementation of the JSONL journal format.

Three subsystems keep a crash-safe, append-only record of their work:
the run journal (:mod:`repro.evaluation.checkpoint`, experiment
repetitions), the ingestion journal (:mod:`repro.ingest.journal`,
follow-mode source files) and the registry journal
(:mod:`repro.serve.journal`, serving tenants).  Each of them is a record
schema plus domain queries over this module, which alone knows the file
format.

Format
------
A journal is a JSONL file.  The first line is a typed header::

    {"type": "ingest-journal", "version": 1}

Every subsequent line is one JSON object with its own ``type`` tag,
serialised with sorted keys.  Records are dataclass events
(:func:`event_record` / :func:`event_from_record`): ``None`` fields are
omitted on write and restored from the dataclass defaults on read.

Durability: each record is a single fsynced ``O_APPEND`` write
(:func:`repro.ioutils.fsync_append_line`).  A process killed mid-write
can leave at most one torn *final* line, which the reader detects and
drops; a torn or non-object line anywhere else means real corruption and
raises :class:`~repro.errors.JournalError`.  Records are never rewritten:
re-recording something appends a fresh record, and readers fold to the
latest record per key (:func:`fold_latest`).
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
from collections.abc import Callable, Hashable, Iterable, Iterator
from pathlib import Path
from typing import TypeVar

from repro.errors import JournalError
from repro.ioutils import fsync_append_line

_VERSION = 1

_T = TypeVar("_T")
_K = TypeVar("_K", bound=Hashable)


def peek_journal_type(path: str | Path) -> str | None:
    """The ``type`` of a journal file's header line, or ``None``.

    Reads only the first line; used to dispatch a path to the journal
    class that owns it (run, ingestion or registry journal) without
    parsing -- or validating -- the whole file.  Returns ``None`` for a
    missing, empty, or torn-headed file.
    """
    path = Path(path)
    if not path.exists():
        return None
    with path.open("r", encoding="utf-8") as handle:
        first = handle.readline()
    try:
        header = json.loads(first)
    except json.JSONDecodeError:
        return None
    if not isinstance(header, dict):
        return None
    kind = header.get("type")
    return kind if isinstance(kind, str) else None


class JournalFile:
    """One JSONL journal file: typed header, fsynced appends, tolerant reads.

    The file is created (with its header line) on the first append.
    Reading never requires the file to exist -- a missing journal is an
    empty one, so fresh and resumed runs construct it identically.
    ``kind`` names the journal flavour in error messages (``"a run
    journal"``, ``"an ingestion journal"``).
    """

    def __init__(self, path: str | Path, header_type: str, kind: str) -> None:
        self.path = Path(path)
        self.header_type = header_type
        self.kind = kind

    def append(self, record: dict) -> None:
        """Durably append one record (a single fsynced line)."""
        if not self.path.exists() or self.path.stat().st_size == 0:
            fsync_append_line(
                self.path,
                json.dumps({"type": self.header_type, "version": _VERSION}),
            )
        fsync_append_line(self.path, json.dumps(record, sort_keys=True))

    def records(self, record_type: str) -> list[dict]:
        """Body records tagged ``record_type``, in append order.

        A torn final line is dropped.  Any other line that is not a
        JSON object, a wrong header ``type`` or an unsupported
        ``version`` raises :class:`~repro.errors.JournalError`.
        """
        path = self.path
        if not path.exists():
            return []
        lines = path.read_text(encoding="utf-8").split("\n")
        if lines and lines[-1] == "":
            lines.pop()
        records: list[dict] = []
        for number, line in enumerate(lines):
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                if number == len(lines) - 1:
                    # Torn final line from a kill mid-append: recoverable.
                    continue
                raise JournalError(
                    f"corrupt journal line {number + 1} in {path}"
                ) from None
            if not isinstance(record, dict):
                raise JournalError(
                    f"corrupt journal line {number + 1} in {path}: "
                    "not a JSON object"
                )
            records.append(record)
        if records:
            header = records[0]
            if header.get("type") != self.header_type:
                raise JournalError(f"not {self.kind} (missing header): {path}")
            if header.get("version") != _VERSION:
                raise JournalError(
                    f"unsupported journal version {header.get('version')!r} "
                    f"in {path}"
                )
        return [record for record in records[1:] if record.get("type") == record_type]


def fold_latest(items: Iterable[_T], key: Callable[[_T], _K]) -> dict[_K, _T]:
    """The latest item per ``key``, keys in first-seen order."""
    latest: dict[_K, _T] = {}
    for item in items:
        latest[key(item)] = item
    return latest


def event_record(event, record_type: str) -> dict:
    """A dataclass event as a journal record: its non-``None`` fields."""
    record: dict = {"type": record_type}
    for field in dataclasses.fields(event):
        value = getattr(event, field.name)
        if value is not None:
            record[field.name] = value
    return record


@contextlib.contextmanager
def malformed_record(label: str) -> Iterator[None]:
    """Turn a missing or mistyped record field into a :class:`JournalError`."""
    try:
        yield
    except (KeyError, TypeError, ValueError) as problem:
        raise JournalError(f"malformed {label} record: {problem}") from None


def _json_object(value) -> dict:
    if not isinstance(value, dict):
        raise TypeError(f"expected a JSON object, got {type(value).__name__}")
    return value


#: Coercions for the field types a record schema may declare, keyed by
#: the (postponed, hence string) annotation with ``| None`` stripped.
_COERCIONS: dict[str, Callable] = {"int": int, "str": str, "dict": _json_object}


def event_from_record(cls: type[_T], record: dict, label: str, **values) -> _T:
    """Inverse of :func:`event_record` for the dataclass ``cls``.

    Fields without a default are required.  ``int``, ``str`` and
    ``dict`` fields are coerced; a value for a field of any other type
    is malformed.  ``values`` supplies, already decoded, the fields a
    schema stores in another shape.  ``label`` names the record flavour
    in the :class:`~repro.errors.JournalError` raised for a malformed
    record.
    """
    with malformed_record(label):
        for field in dataclasses.fields(cls):
            if field.name in values:
                continue
            if field.default is dataclasses.MISSING:
                value = record[field.name]
            else:
                value = record.get(field.name, field.default)
            if value is not None:
                coerce = _COERCIONS.get(field.type.removesuffix(" | None"))
                if coerce is None:
                    raise TypeError(f"unexpected field {field.name!r}")
                value = coerce(value)
            values[field.name] = value
    return cls(**values)
