"""Registry journal: round trips, replay plans, torn tails."""

import pytest

from repro.errors import JournalError
from repro.serve import RegistryJournal
from repro.serve.journal import (
    REASON_CIRCUIT_OPEN,
    TENANT_BOOTSTRAPPED,
    TENANT_CREATED,
    TENANT_QUARANTINED,
    TENANT_REMOVED,
    TENANT_SOURCE_ADDED,
    TenantEvent,
)


def populated(tmp_path) -> RegistryJournal:
    journal = RegistryJournal(tmp_path / "registry.journal")
    for event in [
        TenantEvent("t1", TENANT_CREATED, spec={"system": "lsh"}, fingerprint="aaaa"),
        TenantEvent("t1", TENANT_BOOTSTRAPPED, properties=4, pairs=4),
        TenantEvent("t2", TENANT_CREATED, spec={"system": "lsh"}, fingerprint="bbbb"),
        TenantEvent("t2", TENANT_BOOTSTRAPPED, properties=4, pairs=4),
        TenantEvent(
            "t1", TENANT_SOURCE_ADDED, file="extra.csv", fingerprint="cccc",
            order=1, properties=2, pairs=8,
        ),
        TenantEvent(
            "t2", TENANT_QUARANTINED, reason=REASON_CIRCUIT_OPEN,
            error_type="ValueError", error="boom", failures=3,
        ),
        TenantEvent("t3", TENANT_CREATED, spec={"system": "lsh"}),
        TenantEvent("t3", TENANT_REMOVED),
    ]:
        journal.append(event)
    return journal


class TestRoundTrip:
    def test_events_in_append_order(self, tmp_path):
        events = populated(tmp_path).events()
        assert [event.status for event in events] == [
            "created", "bootstrapped", "created", "bootstrapped",
            "source-added", "quarantined", "created", "removed",
        ]

    def test_latest_wins_per_tenant(self, tmp_path):
        latest = populated(tmp_path).latest()
        assert latest["t1"].status == TENANT_SOURCE_ADDED
        assert latest["t2"].status == TENANT_QUARANTINED
        assert latest["t2"].reason == REASON_CIRCUIT_OPEN
        assert latest["t2"].failures == 3
        assert latest["t3"].status == "removed"

    def test_replay_plan_orders_additions_and_drops_removed(self, tmp_path):
        plan = populated(tmp_path).replay_plan()
        assert [genesis.tenant for genesis, _ in plan] == ["t1", "t2"]
        [(_, additions), (_, none)] = plan
        assert [event.file for event in additions] == ["extra.csv"]
        assert additions[0].order == 1
        assert none == []

    def test_quarantined_view(self, tmp_path):
        quarantined = populated(tmp_path).quarantined()
        assert set(quarantined) == {"t2"}
        assert quarantined["t2"].error_type == "ValueError"

    def test_missing_journal_reads_empty(self, tmp_path):
        journal = RegistryJournal(tmp_path / "absent.journal")
        assert journal.events() == []
        assert journal.replay_plan() == []
        assert "(empty)" in journal.describe()

    def test_describe_summarises_lifecycle(self, tmp_path):
        text = populated(tmp_path).describe()
        assert "t1: status=source-added, sources_added=1" in text
        assert "last reload: t1 += extra.csv (order 1" in text
        assert "quarantined: t2: circuit-open (ValueError: boom)" in text


class TestTornTail:
    def test_torn_final_line_is_dropped(self, tmp_path):
        journal = populated(tmp_path)
        with journal.path.open("ab") as handle:
            handle.write(b'{"type": "tenant", "tenant": "t9", "sta')
        events = journal.events()
        assert [event.tenant for event in events][-1] == "t3"
        assert all(event.tenant != "t9" for event in events)

    def test_wrong_header_type_is_rejected(self, tmp_path):
        path = tmp_path / "bogus.journal"
        path.write_text('{"type": "run-journal", "version": 1}\n')
        with pytest.raises(JournalError):
            RegistryJournal(path).events()
