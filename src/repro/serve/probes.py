"""Liveness, readiness and stats payloads for the matching service.

Three probes, deliberately decoupled from the HTTP plumbing so tests
(and future transports) can call them directly:

``healthz``
    Liveness: the process is up and its handler loop responds.  Always
    200 while the server runs; flips to 503 only once drain begins, so
    an orchestrator stops routing to a terminating instance.

``readyz``
    Readiness: gated on the registry having loaded its journal *and*
    every live tenant being warm (bootstrapped or pinned quarantined).
    A warm-restarting server answers 503 here -- while already live --
    until replay lands it back on its pre-crash tenant set.

``statz``
    Operational counters: admission queue depth and shed/expired
    totals, per-tenant status with featurization ``stage_calls``
    (including the ``name_distance.computed`` / ``cache_hit`` split),
    ``feature_store_bytes`` of each LEAPME tenant's store, and
    quarantine state.  ``instance_meta`` / ``instance_embedding``
    count the *distinct* values featurized per table build, not every
    instance.  Diagnostics only -- no determinism contract.
"""

from __future__ import annotations

from repro.serve.admission import AdmissionQueue
from repro.serve.registry import TenantRegistry


class ServiceProbes:
    """Probe payload builders over a registry and its admission queue."""

    def __init__(
        self, registry: TenantRegistry, admission: AdmissionQueue
    ) -> None:
        self.registry = registry
        self.admission = admission

    def healthz(self) -> tuple[int, dict]:
        if self.admission.stop_event.is_set():
            return 503, {"status": "draining"}
        return 200, {"status": "ok"}

    def readyz(self) -> tuple[int, dict]:
        if self.admission.stop_event.is_set():
            return 503, {"status": "draining"}
        if not self.registry.loaded:
            return 503, {"status": "loading", "reason": "registry journal replay"}
        if not self.registry.ready():
            return 503, {"status": "warming", "reason": "tenant state building"}
        return 200, {
            "status": "ready",
            "tenants": len(self.registry.tenants()),
        }

    def statz(self) -> tuple[int, dict]:
        return 200, {
            "admission": self.admission.stats(),
            "tenants": self.registry.tenant_summaries(),
        }
