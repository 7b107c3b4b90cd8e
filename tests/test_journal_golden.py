"""Golden files: the exact bytes and ``describe()`` text of each journal kind.

One fixed event sequence per kind goes through the public ``append``
API.  The assertions pin the on-disk format (header line, key order,
which fields are omitted) and the post-mortem text byte for byte, so a
refactor of the journal machinery cannot drift either without failing
here.  Journals written by older versions must keep loading and
describing the same way.
"""

from repro.evaluation import REASON_WORKER_CRASH, JournalEntry, RunJournal
from repro.ingest import IngestJournal, SourceEvent
from repro.metrics import MatchQuality
from repro.serve import RegistryJournal, TenantEvent

RUN_EVENTS = [
    JournalEntry(
        "cell-a", 0, "ok", quality=MatchQuality(7, 2, 3),
        degradation="reduced-lr", attempts=2,
    ),
    JournalEntry("cell-a", 1, "skipped", error_type="skip", error="no positives"),
    JournalEntry("cell-a", 2, "failed", attempts=3, error_type="ValueError", error="boom"),
    JournalEntry(
        "cell-b", 0, "failed", attempts=2, error_type=REASON_WORKER_CRASH,
        error="quarantined by the pool supervisor",
    ),
    JournalEntry(
        "cell-b", 1, "failed", attempts=1, error_type="RuntimeError", error="transient"
    ),
    JournalEntry("cell-b", 1, "ok", quality=MatchQuality(4, 0, 1)),
]

RUN_BYTES = (
    '{"type": "journal", "version": 1}\n'
    '{"attempts": 2, "degradation": "reduced-lr", "fn": 3, "fp": 2, "key": "cell-a", '
    '"repetition": 0, "status": "ok", "tp": 7, "type": "repetition"}\n'
    '{"attempts": 1, "error": "no positives", "error_type": "skip", "key": "cell-a", '
    '"repetition": 1, "status": "skipped", "type": "repetition"}\n'
    '{"attempts": 3, "error": "boom", "error_type": "ValueError", "key": "cell-a", '
    '"repetition": 2, "status": "failed", "type": "repetition"}\n'
    '{"attempts": 2, "error": "quarantined by the pool supervisor", '
    '"error_type": "worker_crash", "key": "cell-b", "repetition": 0, '
    '"status": "failed", "type": "repetition"}\n'
    '{"attempts": 1, "error": "transient", "error_type": "RuntimeError", '
    '"key": "cell-b", "repetition": 1, "status": "failed", "type": "repetition"}\n'
    '{"attempts": 1, "fn": 1, "fp": 0, "key": "cell-b", "repetition": 1, '
    '"status": "ok", "tp": 4, "type": "repetition"}\n'
)

RUN_DESCRIBE = (
    "journal {path}:\n"
    "  cell-a: 1 ok, 1 skipped, 1 failed, 1 degraded\n"
    "    last failure: repetition 2: ValueError: boom (after 3 attempt(s))\n"
    "  cell-b: 1 ok, 1 failed, 1 quarantined\n"
    "    last failure: repetition 0: worker_crash: quarantined by the pool "
    "supervisor (after 2 attempt(s))"
)

INGEST_EVENTS = [
    SourceEvent("a.csv", "f1", "discovered"),
    SourceEvent("a.csv", "f1", "admitted"),
    SourceEvent("a.csv", "f1", "featurized", properties=3, pairs=6),
    SourceEvent("a.csv", "f1", "fused", order=1, properties=3, pairs=6, matches=2),
    SourceEvent(
        "b.csv", "f2", "retrying", attempt=1, error_type="OSError", error="disk hiccup"
    ),
    SourceEvent(
        "c.csv", "f3", "quarantined", reason="poison-source", attempt=2,
        error_type="DataError", error="bad header",
    ),
    SourceEvent("d.csv", "f4", "admitted"),
]

INGEST_BYTES = (
    '{"type": "ingest-journal", "version": 1}\n'
    '{"file": "a.csv", "fingerprint": "f1", "status": "discovered", "type": "source"}\n'
    '{"file": "a.csv", "fingerprint": "f1", "status": "admitted", "type": "source"}\n'
    '{"file": "a.csv", "fingerprint": "f1", "pairs": 6, "properties": 3, '
    '"status": "featurized", "type": "source"}\n'
    '{"file": "a.csv", "fingerprint": "f1", "matches": 2, "order": 1, "pairs": 6, '
    '"properties": 3, "status": "fused", "type": "source"}\n'
    '{"attempt": 1, "error": "disk hiccup", "error_type": "OSError", "file": "b.csv", '
    '"fingerprint": "f2", "status": "retrying", "type": "source"}\n'
    '{"attempt": 2, "error": "bad header", "error_type": "DataError", "file": "c.csv", '
    '"fingerprint": "f3", "reason": "poison-source", "status": "quarantined", '
    '"type": "source"}\n'
    '{"file": "d.csv", "fingerprint": "f4", "status": "admitted", "type": "source"}\n'
)

INGEST_DESCRIBE = (
    "ingestion journal {path}:\n"
    "  a.csv (f1): status=fused, order=1, properties=3, pairs=6, matches=2\n"
    "  b.csv (f2): status=retrying\n"
    "  c.csv (f3): status=quarantined, reason=poison-source\n"
    "  d.csv (f4): status=admitted\n"
    "  totals: 1 admitted, 1 retrying, 1 fused, 1 quarantined\n"
    "  last failure: c.csv: DataError: bad header (after 2 attempt(s))\n"
    "  quarantined: c.csv: poison-source (DataError: bad header)"
)

REGISTRY_EVENTS = [
    TenantEvent("t1", "created", spec={"system": "lsh", "seed": 3}, fingerprint="aaaa"),
    TenantEvent("t1", "bootstrapped", properties=4, pairs=4),
    TenantEvent("t2", "created", spec={"system": "lsh"}, fingerprint="bbbb"),
    TenantEvent("t2", "bootstrapped", properties=4, pairs=4),
    TenantEvent(
        "t1", "source-added", file="extra.csv", fingerprint="cccc", order=1,
        properties=2, pairs=8,
    ),
    TenantEvent(
        "t2", "quarantined", reason="circuit-open", error_type="ValueError",
        error="boom", failures=3,
    ),
    TenantEvent("t3", "created", spec={"system": "lsh"}),
    TenantEvent("t3", "removed"),
]

REGISTRY_BYTES = (
    '{"type": "registry-journal", "version": 1}\n'
    '{"fingerprint": "aaaa", "spec": {"seed": 3, "system": "lsh"}, '
    '"status": "created", "tenant": "t1", "type": "tenant"}\n'
    '{"pairs": 4, "properties": 4, "status": "bootstrapped", "tenant": "t1", '
    '"type": "tenant"}\n'
    '{"fingerprint": "bbbb", "spec": {"system": "lsh"}, "status": "created", '
    '"tenant": "t2", "type": "tenant"}\n'
    '{"pairs": 4, "properties": 4, "status": "bootstrapped", "tenant": "t2", '
    '"type": "tenant"}\n'
    '{"file": "extra.csv", "fingerprint": "cccc", "order": 1, "pairs": 8, '
    '"properties": 2, "status": "source-added", "tenant": "t1", "type": "tenant"}\n'
    '{"error": "boom", "error_type": "ValueError", "failures": 3, '
    '"reason": "circuit-open", "status": "quarantined", "tenant": "t2", '
    '"type": "tenant"}\n'
    '{"spec": {"system": "lsh"}, "status": "created", "tenant": "t3", '
    '"type": "tenant"}\n'
    '{"status": "removed", "tenant": "t3", "type": "tenant"}\n'
)

REGISTRY_DESCRIBE = (
    "registry journal {path}:\n"
    "  t1: status=source-added, sources_added=1, properties=2, pairs=8\n"
    "  t2: status=quarantined, reason=circuit-open\n"
    "  t3: status=removed\n"
    "  tenants: 3 (1 source-added, 1 quarantined, 1 removed)\n"
    "  last reload: t1 += extra.csv (order 1, 2 properties, 8 pairs)\n"
    "  quarantined: t2: circuit-open (ValueError: boom)"
)


def _write(journal, events):
    for event in events:
        journal.append(event)
    return journal


def test_run_journal_golden(tmp_path):
    journal = _write(RunJournal(tmp_path / "run.jsonl"), RUN_EVENTS)
    assert journal.path.read_bytes() == RUN_BYTES.encode("utf-8")
    assert journal.describe() == RUN_DESCRIBE.format(path=journal.path)
    assert list(journal.entries("cell-b").values()) == [RUN_EVENTS[3], RUN_EVENTS[5]]


def test_ingest_journal_golden(tmp_path):
    journal = _write(IngestJournal(tmp_path / "ingest.journal"), INGEST_EVENTS)
    assert journal.path.read_bytes() == INGEST_BYTES.encode("utf-8")
    assert journal.describe() == INGEST_DESCRIBE.format(path=journal.path)
    assert journal.events() == INGEST_EVENTS


def test_registry_journal_golden(tmp_path):
    journal = _write(RegistryJournal(tmp_path / "registry.journal"), REGISTRY_EVENTS)
    assert journal.path.read_bytes() == REGISTRY_BYTES.encode("utf-8")
    assert journal.describe() == REGISTRY_DESCRIBE.format(path=journal.path)
    assert journal.events() == REGISTRY_EVENTS
