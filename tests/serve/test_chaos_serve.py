"""Chaos tests: real process deaths against the tenant registry.

A forked registry is hard-killed (``os._exit``, no unwinding) at each
journaled lifecycle stage -- including the ``reload`` instant, after a
copy-on-swap successor state is built but before its ``source-added``
record lands -- then a fresh process warm-restarts from the journal.
The acceptance invariant is that the restarted ``/match`` body is
byte-identical to a cold rebuild over what the journal says survived.
"""

import os

import pytest

from repro.serve import RegistryJournal, TenantRegistry
from repro.testing import StageFaultPlan
from repro.testing.faults import WORKER_EXIT_CODE

from tests.serve.conftest import (
    make_spec,
    match_body,
    write_extra_source,
)


def run_forked(fn) -> int:
    """Run ``fn`` in a forked child; returns the child's exit code."""
    pid = os.fork()
    if pid == 0:  # pragma: no cover - child process
        try:
            fn()
        except BaseException:
            os._exit(70)
        os._exit(0)
    _, status = os.waitpid(pid, 0)
    return os.waitstatus_to_exitcode(status)


def cold_body(spec, extra=None) -> bytes:
    """The ``/match`` bytes of an unjournaled from-scratch rebuild."""
    registry = TenantRegistry()
    registry.load()
    registry.create(spec)
    if extra is not None:
        registry.add_source(spec.tenant, extra)
    return match_body(registry, spec.tenant)


class TestStageKills:
    @pytest.mark.parametrize(
        ("stage", "source_survives"),
        [
            ("created", False),
            ("bootstrapped", False),
            ("reload", False),
            ("source-added", True),
        ],
    )
    def test_sigkill_at_stage_then_warm_restart_is_byte_identical(
        self, tmp_path, stage, source_survives
    ):
        spec = make_spec(tmp_path)
        extra = write_extra_source(tmp_path)
        journal_path = tmp_path / "registry.journal"
        plan = StageFaultPlan(
            exit_after={stage: 1}, state_dir=str(tmp_path / "faults")
        )

        def doomed():
            registry = TenantRegistry(
                RegistryJournal(journal_path), fault_plan=plan
            )
            registry.load()
            registry.create(spec)
            registry.add_source(spec.tenant, extra)

        assert run_forked(doomed) == WORKER_EXIT_CODE

        restarted = TenantRegistry(RegistryJournal(journal_path))
        counts = restarted.load()
        assert counts["tenants"] == 1
        assert counts["sources"] == (1 if source_survives else 0)
        warm = match_body(restarted, spec.tenant)
        assert warm == cold_body(spec, extra if source_survives else None)

    def test_repeated_kills_at_every_stage_in_one_run(self, tmp_path):
        """One life per kill stage, then the lifecycle completes clean."""
        spec = make_spec(tmp_path)
        extra = write_extra_source(tmp_path)
        journal_path = tmp_path / "registry.journal"
        plan = StageFaultPlan(
            exit_after={
                "created": 1,
                "bootstrapped": 1,
                "reload": 1,
                "source-added": 1,
            },
            state_dir=str(tmp_path / "faults"),
        )

        def doomed():
            registry = TenantRegistry(
                RegistryJournal(journal_path), fault_plan=plan
            )
            registry.load()
            if registry.get(spec.tenant) is None:
                registry.create(spec)
            tenant = registry.get(spec.tenant)
            if tenant.state is not None and not tenant.state.sources:
                registry.add_source(spec.tenant, extra)

        deaths = 0
        while deaths < 10:
            code = run_forked(doomed)
            if code == 0:
                break
            assert code == WORKER_EXIT_CODE
            deaths += 1
        # "bootstrapped" only fires on a life that runs create() itself;
        # after the "created" kill the restart replays the bootstrap
        # without journaling, so three deaths is the exact count.
        assert 1 <= deaths <= 4

        restarted = TenantRegistry(RegistryJournal(journal_path))
        restarted.load()
        assert match_body(restarted, spec.tenant) == cold_body(spec, extra)


class TestBlockedTenantKills:
    @pytest.mark.parametrize(
        ("stage", "source_survives"),
        [("reload", False), ("source-added", True)],
    )
    def test_blocked_tenant_warm_restart_is_byte_identical(
        self, tmp_path, stage, source_survives
    ):
        """The journaled blocking label survives a hard kill.

        A blocked LEAPME tenant is killed around the copy-on-swap reload;
        the warm restart must rebuild the same pruned universe (the
        policy label rides in the ``created`` record) and produce the
        exact ``/match`` bytes of a cold blocked rebuild.
        """
        spec = make_spec(tmp_path, system="leapme", blocking="minhash")
        extra = write_extra_source(tmp_path)
        journal_path = tmp_path / "registry.journal"
        plan = StageFaultPlan(
            exit_after={stage: 1}, state_dir=str(tmp_path / "faults")
        )

        def doomed():
            registry = TenantRegistry(
                RegistryJournal(journal_path), fault_plan=plan
            )
            registry.load()
            registry.create(spec)
            registry.add_source(spec.tenant, extra)

        assert run_forked(doomed) == WORKER_EXIT_CODE

        restarted = TenantRegistry(RegistryJournal(journal_path))
        counts = restarted.load()
        assert counts["tenants"] == 1
        assert counts["sources"] == (1 if source_survives else 0)
        warm = match_body(restarted, spec.tenant)
        assert warm == cold_body(spec, extra if source_survives else None)
        assert restarted.match_payload(spec.tenant)["blocking"] == "minhash"


class TestTornJournalAppend:
    def test_kill_mid_append_leaves_a_recoverable_journal(self, tmp_path):
        spec = make_spec(tmp_path)
        extra = write_extra_source(tmp_path)
        journal = RegistryJournal(tmp_path / "registry.journal")
        registry = TenantRegistry(journal)
        registry.load()
        registry.create(spec)
        registry.add_source(spec.tenant, extra)
        before = match_body(registry, spec.tenant)

        # A kill partway through the *next* append leaves a torn final
        # line; the replay must drop it and land on the prior state.
        with journal.path.open("ab") as handle:
            handle.write(b'{"type": "tenant", "tenant": "t1", "stat')

        restarted = TenantRegistry(journal)
        counts = restarted.load()
        assert counts == {"tenants": 1, "sources": 1, "quarantined": 0}
        assert match_body(restarted, spec.tenant) == before
