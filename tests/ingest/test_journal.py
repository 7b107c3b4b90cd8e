"""IngestJournal: crash-safe lifecycle records with latest-wins reads."""

import json

import pytest

from repro.errors import JournalError
from repro.evaluation.checkpoint import STATUS_SKIPPED, JournalEntry, RunJournal
from repro.ingest import (
    REASON_POISON,
    STATUS_ADMITTED,
    STATUS_DISCOVERED,
    STATUS_FEATURIZED,
    STATUS_FUSED,
    STATUS_QUARANTINED,
    STATUS_RETRYING,
    IngestJournal,
    SourceEvent,
)
from repro.ingest.journal import INGEST_JOURNAL_TYPE
from repro.journal import peek_journal_type


@pytest.fixture()
def journal(tmp_path):
    return IngestJournal(tmp_path / "ingest.journal")


def _fused(file, fingerprint, **counts):
    return SourceEvent(file, fingerprint, STATUS_FUSED, matches=0, **counts)


def _retrying(file, fingerprint, error):
    return SourceEvent(
        file, fingerprint, STATUS_RETRYING, attempt=1,
        error_type=type(error).__name__, error=str(error),
    )


def _skip(key, repetition, reason):
    return JournalEntry(
        key, repetition, STATUS_SKIPPED, error_type="skip", error=reason
    )


class TestLifecycleRecords:
    def test_header_written_once(self, journal):
        journal.append(SourceEvent("a.csv", "f1", STATUS_DISCOVERED))
        journal.append(SourceEvent("a.csv", "f1", STATUS_ADMITTED))
        lines = journal.path.read_text().splitlines()
        header = json.loads(lines[0])
        assert header == {"type": INGEST_JOURNAL_TYPE, "version": 1}
        assert len(lines) == 3

    def test_latest_record_wins(self, journal):
        journal.append(SourceEvent("a.csv", "f1", STATUS_DISCOVERED))
        journal.append(SourceEvent("a.csv", "f1", STATUS_ADMITTED))
        journal.append(
            SourceEvent("a.csv", "f1", STATUS_FEATURIZED, properties=3, pairs=6)
        )
        journal.append(
            SourceEvent(
                "a.csv", "f1", STATUS_FUSED, order=1, properties=3, pairs=6, matches=2
            )
        )
        latest = journal.latest()
        assert latest[("a.csv", "f1")].status == STATUS_FUSED
        assert latest[("a.csv", "f1")].matches == 2

    def test_same_file_new_fingerprint_is_a_new_source(self, journal):
        journal.append(_fused("a.csv", "f1", order=1, properties=1, pairs=0))
        journal.append(SourceEvent("a.csv", "f2", STATUS_DISCOVERED))
        assert set(journal.latest()) == {("a.csv", "f1"), ("a.csv", "f2")}

    def test_fused_in_order_sorts_by_fusion_order(self, journal):
        journal.append(_fused("b.csv", "f2", order=2, properties=1, pairs=1))
        journal.append(_fused("a.csv", "f1", order=1, properties=1, pairs=0))
        assert [event.file for event in journal.fused_in_order()] == [
            "a.csv", "b.csv",
        ]

    def test_quarantine_carries_structured_reason(self, journal):
        journal.append(
            SourceEvent(
                "bad.csv", "f9", STATUS_QUARANTINED, reason=REASON_POISON, attempt=3,
                error_type="DataError", error="missing columns",
            )
        )
        event = journal.quarantined()[("bad.csv", "f9")]
        assert event.status == STATUS_QUARANTINED
        assert event.reason == REASON_POISON
        assert event.error_type == "DataError"
        assert event.attempt == 3


class TestCrashSafety:
    def test_torn_final_line_is_dropped(self, journal):
        journal.append(SourceEvent("a.csv", "f1", STATUS_ADMITTED))
        journal.append(SourceEvent("b.csv", "f2", STATUS_ADMITTED))
        with journal.path.open("a") as handle:
            handle.write('{"type": "source", "file": "c.csv", "finge')
        assert [event.file for event in journal.events()] == ["a.csv", "b.csv"]

    def test_torn_middle_line_raises(self, journal):
        journal.append(SourceEvent("a.csv", "f1", STATUS_ADMITTED))
        with journal.path.open("a") as handle:
            handle.write('{"torn\n')
        journal.append(SourceEvent("b.csv", "f2", STATUS_ADMITTED))
        with pytest.raises(JournalError, match="corrupt journal line"):
            journal.events()

    def test_missing_journal_reads_empty(self, journal):
        assert journal.events() == []
        assert journal.latest() == {}
        assert journal.fused_in_order() == []

    def test_run_journal_is_rejected_with_flavour_message(self, tmp_path):
        run = RunJournal(tmp_path / "run.jsonl")
        run.append(_skip("cell", 0, "no positives"))
        with pytest.raises(JournalError, match="not an ingestion journal"):
            IngestJournal(run.path).events()

    def test_malformed_record_raises(self, journal):
        with journal.path.open("a") as handle:
            handle.write(f'{{"type": "{INGEST_JOURNAL_TYPE}", "version": 1}}\n')
            handle.write('{"type": "source", "file": "a.csv"}\n')
        with pytest.raises(JournalError, match="malformed ingestion-journal"):
            journal.events()


class TestPeekJournalType:
    def test_distinguishes_flavours(self, tmp_path, journal):
        journal.append(SourceEvent("a.csv", "f1", STATUS_ADMITTED))
        run = RunJournal(tmp_path / "run.jsonl")
        run.append(_skip("cell", 0, "nothing"))
        assert peek_journal_type(journal.path) == INGEST_JOURNAL_TYPE
        assert peek_journal_type(run.path) == "journal"
        assert peek_journal_type(tmp_path / "absent") is None

    def test_garbage_header_is_none(self, tmp_path):
        path = tmp_path / "garbage"
        path.write_text("not json\n")
        assert peek_journal_type(path) is None


class TestDescribe:
    def test_summarises_status_failure_and_reasons(self, journal):
        journal.append(_fused("a.csv", "f1", order=1, properties=2, pairs=0))
        journal.append(_retrying("b.csv", "f2", OSError("disk hiccup")))
        journal.append(
            SourceEvent(
                "c.csv", "f3", STATUS_QUARANTINED, reason=REASON_POISON, attempt=2,
                error_type="DataError", error="bad header",
            )
        )
        text = journal.describe()
        assert "a.csv (f1): status=fused, order=1" in text
        assert "1 retrying, 1 fused, 1 quarantined" in text  # lifecycle order
        assert "last failure: c.csv: DataError: bad header" in text
        assert "quarantined: c.csv: poison-source (DataError: bad header)" in text

    def test_recovered_failures_are_history(self, journal):
        journal.append(_retrying("a.csv", "f1", OSError("flaky")))
        journal.append(_fused("a.csv", "f1", order=1, properties=1, pairs=0))
        assert "last failure" not in journal.describe()

    def test_empty_journal(self, journal):
        assert "(empty)" in journal.describe()


class TestSourceEventRoundtrip:
    def test_roundtrip(self):
        event = SourceEvent(
            "a.csv", "f1", STATUS_FUSED, order=3, properties=5, pairs=9, matches=2
        )
        assert SourceEvent.from_record(event.to_record()) == event

    def test_omits_absent_fields(self):
        record = SourceEvent("a.csv", "f1", "admitted").to_record()
        assert set(record) == {"type", "file", "fingerprint", "status"}
