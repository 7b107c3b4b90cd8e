"""Registry journal: the crash-safe record of a matching service's tenants.

Every tenant a :class:`~repro.serve.registry.TenantRegistry` manages
moves through a small lifecycle::

    created -> bootstrapped -> source-added* -> removed
                    |
                    +--> quarantined

Each transition is one fsynced append to a :mod:`repro.journal` file,
exactly like the run and ingestion journals, so a server killed at any
instant leaves a journal from which a warm restart rebuilds the same
tenant set: ``created`` records carry the full bootstrap spec (system,
input paths, seed, threshold) plus the content fingerprint of the
inputs, and ``source-added`` records carry the reload order and file
fingerprints.
Replaying those records through the same deterministic bootstrap and
delta paths lands every tenant on state whose match responses are
byte-identical to a cold rebuild -- the acceptance invariant the serve
chaos suite pins with SIGKILL at every journaled stage.

Format
------
The header is ``{"type": "registry-journal", "version": 1}``.  Every
subsequent line describes one transition of one tenant::

    {"type": "tenant", "tenant": "shop-a", "status": "source-added",
     "file": "feeds/extra.csv", "fingerprint": "9f2c...", "order": 2,
     "properties": 7, "pairs": 21}

``quarantined`` records carry a structured ``reason`` plus the final
error and the consecutive-failure count that tripped the breaker.
Records for the same tenant supersede each other (latest status wins).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from repro.journal import JournalFile, event_from_record, event_record, fold_latest

REGISTRY_JOURNAL_TYPE = "registry-journal"

TENANT_CREATED = "created"
TENANT_BOOTSTRAPPED = "bootstrapped"
TENANT_SOURCE_ADDED = "source-added"
TENANT_QUARANTINED = "quarantined"
TENANT_REMOVED = "removed"

#: Lifecycle order, used to render describe() totals deterministically.
TENANT_STATUS_ORDER = (
    TENANT_CREATED,
    TENANT_BOOTSTRAPPED,
    TENANT_SOURCE_ADDED,
    TENANT_QUARANTINED,
    TENANT_REMOVED,
)

#: Structured ``reason`` values of ``quarantined`` records.
REASON_CIRCUIT_OPEN = "circuit-open"
REASON_POISON_TENANT = "poison-tenant"
TENANT_QUARANTINE_REASONS = frozenset({REASON_CIRCUIT_OPEN, REASON_POISON_TENANT})


@dataclass(frozen=True)
class TenantEvent:
    """One tenant's transition as recorded in (or read from) a journal."""

    tenant: str
    status: str
    spec: dict | None = None
    fingerprint: str | None = None
    file: str | None = None
    order: int | None = None
    properties: int | None = None
    pairs: int | None = None
    reason: str | None = None
    error_type: str | None = None
    error: str | None = None
    failures: int | None = None

    def to_record(self) -> dict:
        """JSON-serialisable journal line."""
        return event_record(self, "tenant")

    @classmethod
    def from_record(cls, record: dict) -> "TenantEvent":
        """Inverse of :meth:`to_record`."""
        return event_from_record(cls, record, "registry-journal")


class RegistryJournal:
    """Append-only JSONL journal of tenant lifecycle transitions.

    One instance wraps one file path; the file is created (with its
    header line) on the first append.  A missing journal reads as an
    empty one, so a fresh server and a warm restart construct the
    registry identically.
    """

    def __init__(self, path: str | Path) -> None:
        self._file = JournalFile(path, REGISTRY_JOURNAL_TYPE, "a registry journal")
        self.path = self._file.path

    def append(self, event: TenantEvent) -> None:
        """Durably record one transition (a single fsynced line)."""
        self._file.append(event.to_record())

    def events(self) -> list[TenantEvent]:
        """Every tenant transition, in append order (torn tail dropped)."""
        return [
            TenantEvent.from_record(record) for record in self._file.records("tenant")
        ]

    def latest(self) -> dict[str, TenantEvent]:
        """Latest event per tenant, in first-seen order."""
        return fold_latest(self.events(), key=lambda event: event.tenant)

    def replay_plan(self) -> list[tuple[TenantEvent, list[TenantEvent]]]:
        """``(created, [source-added...])`` per live tenant, in creation order.

        The warm-restart recipe: bootstrap each tenant from its
        ``created`` spec, then re-apply its ``source-added`` records in
        reload order.  Tenants whose latest status is ``removed`` are
        dropped; quarantined tenants are returned (their latest event
        says so) so the registry can pin the quarantine without
        rebuilding state.
        """
        events = self.events()
        latest = self.latest()
        created: dict[str, TenantEvent] = {}
        additions: dict[str, list[TenantEvent]] = {}
        for event in events:
            if event.status == TENANT_CREATED and event.tenant not in created:
                created[event.tenant] = event
            elif event.status == TENANT_SOURCE_ADDED:
                additions.setdefault(event.tenant, []).append(event)
        plan: list[tuple[TenantEvent, list[TenantEvent]]] = []
        for tenant, genesis in created.items():
            if latest[tenant].status == TENANT_REMOVED:
                continue
            ordered = sorted(
                additions.get(tenant, []), key=lambda event: event.order or 0
            )
            plan.append((genesis, ordered))
        return plan

    def quarantined(self) -> dict[str, TenantEvent]:
        """Tenants whose latest status is ``quarantined``."""
        return {
            tenant: event
            for tenant, event in self.latest().items()
            if event.status == TENANT_QUARANTINED
        }

    def describe(self) -> str:
        """Post-mortem summary: per-tenant status, reloads, quarantines.

        One line per tenant with its latest status and counts, then
        aggregate totals, the most recent reload (the highest
        ``source-added`` order across tenants), and one line per
        quarantined tenant naming its structured reason -- the
        registry-journal counterpart of the run/ingest journal
        summaries served by ``repro describe --journal``.
        """
        events = self.events()
        latest = self.latest()
        lines = [f"registry journal {self.path}:"]
        if not latest:
            lines.append("  (empty)")
            return "\n".join(lines)
        counts: dict[str, int] = {}
        sources: dict[str, int] = {}
        last_reload: TenantEvent | None = None
        for event in events:
            if event.status == TENANT_SOURCE_ADDED:
                sources[event.tenant] = sources.get(event.tenant, 0) + 1
                if last_reload is None or (event.order or 0) >= (
                    last_reload.order or 0
                ):
                    last_reload = event
        for tenant, event in latest.items():
            counts[event.status] = counts.get(event.status, 0) + 1
            detail = [f"status={event.status}"]
            if sources.get(tenant):
                detail.append(f"sources_added={sources[tenant]}")
            if event.properties is not None:
                detail.append(f"properties={event.properties}")
            if event.pairs is not None:
                detail.append(f"pairs={event.pairs}")
            if event.reason is not None:
                detail.append(f"reason={event.reason}")
            lines.append(f"  {tenant}: " + ", ".join(detail))
        summary = [
            f"{counts[status]} {status}"
            for status in TENANT_STATUS_ORDER
            if counts.get(status)
        ]
        lines.append(f"  tenants: {len(latest)} ({', '.join(summary)})")
        if last_reload is not None:
            lines.append(
                f"  last reload: {last_reload.tenant} += {last_reload.file} "
                f"(order {last_reload.order}, {last_reload.properties} "
                f"properties, {last_reload.pairs} pairs)"
            )
        for tenant, event in sorted(self.quarantined().items()):
            lines.append(
                f"  quarantined: {tenant}: {event.reason} "
                f"({event.error_type}: {event.error})"
            )
        return "\n".join(lines)
