"""Tests for the run journal (checkpoint/resume storage layer)."""

import json

import pytest

from repro.data.model import Dataset, PropertyInstance
from repro.errors import JournalError
from repro.evaluation import RunSettings
from repro.evaluation.checkpoint import (
    STATUS_FAILED,
    STATUS_OK,
    STATUS_SKIPPED,
    JournalEntry,
    RunJournal,
    run_key,
)
from repro.metrics import MatchQuality


def _dataset(name="demo", n=2):
    instances = [
        PropertyInstance(source=f"s{i}", property_name="p", entity_id="e", value=str(i))
        for i in range(n)
    ]
    return Dataset(name=name, instances=instances)


class TestRunKey:
    def test_stable_for_same_inputs(self):
        dataset = _dataset()
        settings = RunSettings(repetitions=3)
        assert run_key("m", dataset, settings) == run_key("m", dataset, settings)

    def test_sensitive_to_every_protocol_knob(self):
        dataset = _dataset()
        base = run_key("m", dataset, RunSettings())
        assert run_key("other", dataset, RunSettings()) != base
        assert run_key("m", dataset, RunSettings(seed=1)) != base
        assert run_key("m", dataset, RunSettings(train_fraction=0.5)) != base
        assert run_key("m", dataset, RunSettings(repetitions=7)) != base
        assert run_key("m", dataset, RunSettings(negative_ratio=1.0)) != base

    def test_sensitive_to_dataset_content_not_just_name(self):
        settings = RunSettings()
        assert run_key("m", _dataset(n=2), settings) != run_key(
            "m", _dataset(n=3), settings
        )

    def test_human_readable_prefix(self):
        key = run_key("LEAPME", _dataset(), RunSettings())
        assert key.startswith("LEAPME|demo|")


class TestJournalRoundTrip:
    def test_missing_file_is_empty(self, tmp_path):
        journal = RunJournal(tmp_path / "absent.jsonl")
        assert journal.entries("any") == {}
        assert journal.keys() == []

    def test_quality_round_trips_exactly(self, tmp_path):
        journal = RunJournal(tmp_path / "run.jsonl")
        quality = MatchQuality(true_positives=7, false_positives=2, false_negatives=3)
        journal.append(
            JournalEntry(
                "k", 0, STATUS_OK, quality=quality,
                degradation="reduced-lr", attempts=2,
            )
        )
        entry = journal.entries("k")[0]
        assert entry.status == STATUS_OK
        assert entry.quality == quality
        assert entry.degradation == "reduced-lr"
        assert entry.attempts == 2

    def test_skip_and_failure_records(self, tmp_path):
        journal = RunJournal(tmp_path / "run.jsonl")
        journal.append(
            JournalEntry(
                "k", 1, STATUS_SKIPPED, error_type="skip", error="no positives"
            )
        )
        journal.append(
            JournalEntry(
                "k", 2, STATUS_FAILED, attempts=3,
                error_type="ValueError", error="boom",
            )
        )
        entries = journal.entries("k")
        assert entries[1].status == STATUS_SKIPPED
        assert entries[2].status == STATUS_FAILED
        assert entries[2].error_type == "ValueError"
        assert entries[2].error == "boom"
        assert entries[2].attempts == 3

    def test_keys_isolated_per_cell(self, tmp_path):
        journal = RunJournal(tmp_path / "run.jsonl")
        quality = MatchQuality(1, 0, 0)
        journal.append(JournalEntry("a", 0, STATUS_OK, quality=quality))
        journal.append(JournalEntry("b", 0, STATUS_OK, quality=quality))
        assert journal.keys() == ["a", "b"]
        assert set(journal.entries("a")) == {0}

    def test_last_record_per_repetition_wins(self, tmp_path):
        journal = RunJournal(tmp_path / "run.jsonl")
        journal.append(
            JournalEntry(
                "k", 0, STATUS_FAILED, attempts=1,
                error_type="RuntimeError", error="first try",
            )
        )
        journal.append(JournalEntry("k", 0, STATUS_OK, quality=MatchQuality(5, 0, 0)))
        assert journal.entries("k")[0].status == STATUS_OK

    def test_describe_summarises(self, tmp_path):
        journal = RunJournal(tmp_path / "run.jsonl")
        journal.append(JournalEntry("k", 0, STATUS_OK, quality=MatchQuality(1, 0, 0)))
        journal.append(
            JournalEntry(
                "k", 1, STATUS_FAILED, attempts=2,
                error_type="RuntimeError", error="x",
            )
        )
        text = journal.describe()
        assert "1 ok" in text and "1 failed" in text

    def test_describe_reports_last_failure_reason(self, tmp_path):
        journal = RunJournal(tmp_path / "run.jsonl")
        journal.append(
            JournalEntry(
                "k", 1, STATUS_FAILED, attempts=1,
                error_type="RuntimeError", error="first",
            )
        )
        journal.append(
            JournalEntry(
                "k", 3, STATUS_FAILED, attempts=2,
                error_type="ValueError", error="most recent",
            )
        )
        text = journal.describe()
        assert "last failure: repetition 3" in text
        assert "ValueError: most recent" in text
        assert "after 2 attempt(s)" in text

    def test_describe_omits_failures_superseded_by_resume(self, tmp_path):
        # A failure later re-attempted successfully is history: the
        # latest entry for the repetition is ok, so a healthy journal
        # must not advertise a "last failure" post-mortem line.
        journal = RunJournal(tmp_path / "run.jsonl")
        journal.append(
            JournalEntry(
                "k", 0, STATUS_FAILED, attempts=1,
                error_type="RuntimeError", error="transient",
            )
        )
        journal.append(JournalEntry("k", 0, STATUS_OK, quality=MatchQuality(1, 0, 0)))
        text = journal.describe()
        assert "1 ok" in text
        assert "failed" not in text
        assert "last failure" not in text

    def test_describe_last_failure_respects_latest_entry_semantics(
        self, tmp_path
    ):
        # Repetition 0's failure is journaled *after* repetition 1's,
        # but a resumed run then fixed repetition 0 -- so the reported
        # last failure must be repetition 1's, the only one still live.
        journal = RunJournal(tmp_path / "run.jsonl")
        journal.append(
            JournalEntry(
                "k", 1, STATUS_FAILED, attempts=1,
                error_type="RuntimeError", error="still broken",
            )
        )
        journal.append(
            JournalEntry(
                "k", 0, STATUS_FAILED, attempts=1,
                error_type="RuntimeError", error="later fixed",
            )
        )
        journal.append(JournalEntry("k", 0, STATUS_OK, quality=MatchQuality(1, 0, 0)))
        text = journal.describe()
        assert "last failure: repetition 1" in text
        assert "still broken" in text
        assert "later fixed" not in text

    def test_describe_counts_quarantined_separately(self, tmp_path):
        from repro.evaluation.checkpoint import REASON_TIMEOUT, REASON_WORKER_CRASH

        journal = RunJournal(tmp_path / "run.jsonl")
        journal.append(JournalEntry("k", 0, STATUS_OK, quality=MatchQuality(1, 0, 0)))
        journal.append(
            JournalEntry(
                "k", 1, STATUS_FAILED, attempts=1,
                error_type="RuntimeError", error="plain failure",
            )
        )
        journal.append(
            JournalEntry(
                key="k",
                repetition=2,
                status=STATUS_FAILED,
                attempts=2,
                error_type=REASON_WORKER_CRASH,
                error="quarantined by the pool supervisor",
            )
        )
        journal.append(
            JournalEntry(
                key="k",
                repetition=3,
                status=STATUS_FAILED,
                attempts=2,
                error_type=REASON_TIMEOUT,
                error="quarantined by the pool supervisor",
            )
        )
        text = journal.describe()
        assert "3 failed" in text
        assert "2 quarantined" in text

    def test_describe_empty_journal(self, tmp_path):
        journal = RunJournal(tmp_path / "run.jsonl")
        assert "(empty)" in journal.describe()


class TestJournalDurability:
    def test_torn_final_line_is_ignored(self, tmp_path):
        path = tmp_path / "run.jsonl"
        journal = RunJournal(path)
        journal.append(JournalEntry("k", 0, STATUS_OK, quality=MatchQuality(1, 0, 0)))
        with path.open("a") as handle:
            handle.write('{"type": "repetition", "key": "k", "repe')  # torn write
        assert set(RunJournal(path).entries("k")) == {0}

    def test_append_after_torn_line_stays_readable(self, tmp_path):
        # A kill mid-append must not poison later appends: the torn tail
        # is truncated away, the new record lands on its own line, and
        # every subsequent read (and resume) still works.
        path = tmp_path / "run.jsonl"
        journal = RunJournal(path)
        journal.append(JournalEntry("k", 0, STATUS_OK, quality=MatchQuality(1, 0, 0)))
        with path.open("a") as handle:
            handle.write('{"type": "repetition", "key": "k", "repe')  # torn write
        journal.append(JournalEntry("k", 1, STATUS_OK, quality=MatchQuality(2, 0, 0)))
        journal.append(JournalEntry("k", 2, STATUS_OK, quality=MatchQuality(3, 0, 0)))
        entries = RunJournal(path).entries("k")
        assert set(entries) == {0, 1, 2}
        assert entries[1].quality == MatchQuality(2, 0, 0)

    def test_corruption_mid_file_raises(self, tmp_path):
        path = tmp_path / "run.jsonl"
        journal = RunJournal(path)
        journal.append(JournalEntry("k", 0, STATUS_OK, quality=MatchQuality(1, 0, 0)))
        with path.open("a") as handle:
            handle.write("GARBAGE\n")
        journal.append(JournalEntry("k", 1, STATUS_OK, quality=MatchQuality(1, 0, 0)))
        with pytest.raises(JournalError):
            RunJournal(path).entries("k")

    def test_non_journal_file_rejected(self, tmp_path):
        path = tmp_path / "not-a-journal.jsonl"
        path.write_text(json.dumps({"type": "something-else"}) + "\n")
        with pytest.raises(JournalError):
            RunJournal(path).entries("k")

    def test_unsupported_version_rejected(self, tmp_path):
        path = tmp_path / "future.jsonl"
        path.write_text(json.dumps({"type": "journal", "version": 99}) + "\n")
        with pytest.raises(JournalError):
            RunJournal(path).entries("k")

    def test_malformed_record_raises(self):
        with pytest.raises(JournalError):
            JournalEntry.from_record({"type": "repetition"})  # missing fields
