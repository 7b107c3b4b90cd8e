"""The HTTP skin: probes, tenant lifecycle, overload, determinism."""

import json
import threading

from repro.serve import (
    AdmissionQueue,
    MatchingService,
    RegistryJournal,
    TenantRegistry,
)

from tests.serve.conftest import (
    make_registry,
    make_spec,
    match_body,
    request,
    write_extra_source,
)


def create_tenant(service, tmp_path, tenant="t1", **spec_kwargs):
    spec = make_spec(tmp_path, tenant=tenant, **spec_kwargs)
    record = spec.to_record()
    return request(service, "POST", f"/tenants/{tenant}", record)


class TestProbes:
    def test_healthz_and_readyz_on_a_loaded_registry(self, service):
        status, _, body = request(service, "GET", "/healthz")
        assert (status, json.loads(body)) == (200, {"status": "ok"})
        status, _, body = request(service, "GET", "/readyz")
        assert status == 200
        assert json.loads(body)["status"] == "ready"

    def test_readyz_gates_on_journal_replay(self, tmp_path):
        registry = TenantRegistry(RegistryJournal(tmp_path / "r.journal"))
        service = MatchingService(registry)
        service.start()
        try:
            status, _, body = request(service, "GET", "/readyz")
            assert status == 503
            assert json.loads(body)["status"] == "loading"
            registry.load()
            status, _, _ = request(service, "GET", "/readyz")
            assert status == 200
        finally:
            service.stop()

    def test_draining_flips_liveness(self, service):
        service.stop_event.set()
        status, _, body = request(service, "GET", "/healthz")
        assert status == 503
        assert json.loads(body)["status"] == "draining"

    def test_statz_reports_admission_and_tenants(self, service, tmp_path):
        create_tenant(service, tmp_path)
        request(service, "POST", "/tenants/t1/match")
        status, _, body = request(service, "GET", "/statz")
        stats = json.loads(body)
        assert status == 200
        assert stats["admission"]["admitted"] == 1
        assert stats["admission"]["completed"] == 1
        assert stats["tenants"]["t1"]["status"] == "ready"

    def test_statz_reports_the_feature_store_size(self, service, tmp_path):
        create_tenant(service, tmp_path, system="leapme")
        before = json.loads(request(service, "GET", "/statz")[2])["tenants"]["t1"]
        assert before["feature_store_bytes"] > 0
        extra = write_extra_source(tmp_path)
        status, _, _ = request(
            service, "POST", "/tenants/t1/add-source", {"path": str(extra)}
        )
        assert status == 200
        after = json.loads(request(service, "GET", "/statz")[2])["tenants"]["t1"]
        assert after["candidate_pairs"] > before["candidate_pairs"]
        assert after["feature_store_bytes"] > before["feature_store_bytes"]
        # No pair matrix: with three sources (6 properties, 12 pairs) the
        # store is already smaller than the pairs' full-width rows.  At
        # two sources a property row per pair makes the two sizes equal.
        store = service.registry.get("t1").state.matcher.store
        assert after["feature_store_bytes"] == store.nbytes
        assert store.nbytes < len(store.universe) * store.schema.total_width * 4

    def test_unknown_endpoint_is_404(self, service):
        assert request(service, "GET", "/nope")[0] == 404
        assert request(service, "POST", "/tenants/a/b/c")[0] == 404


class TestTenantLifecycle:
    def test_create_match_predict_delete(self, service, tmp_path):
        status, _, body = create_tenant(service, tmp_path)
        assert status == 201
        created = json.loads(body)
        assert created["properties"] == 4
        assert sorted(created["sources"]) == ["srcA", "srcB"]

        status, _, body = request(service, "POST", "/tenants/t1/match")
        assert status == 200
        assert body == match_body(service.registry, "t1")

        status, _, body = request(
            service,
            "POST",
            "/tenants/t1/predict",
            {"pairs": [["srcA", "weight", "srcB", "wt"]]},
        )
        assert status == 200
        assert json.loads(body)["decisions"] == [True]

        assert request(service, "DELETE", "/tenants/t1")[0] == 200
        assert request(service, "POST", "/tenants/t1/match")[0] == 404

    def test_bad_spec_is_400(self, service):
        status, _, body = request(service, "POST", "/tenants/t1", {})
        assert status == 400
        assert "exactly one of" in json.loads(body)["error"]

    def test_unknown_pair_is_400_and_not_a_breaker_strike(
        self, service, tmp_path
    ):
        create_tenant(service, tmp_path)
        status, _, _ = request(
            service,
            "POST",
            "/tenants/t1/predict",
            {"pairs": [["srcA", "nope", "srcB", "wt"]]},
        )
        assert status == 400
        assert service.registry.get("t1").failures == 0

    def test_add_source_reloads_and_serves_new_pairs(self, service, tmp_path):
        create_tenant(service, tmp_path)
        before = json.loads(request(service, "POST", "/tenants/t1/match")[2])
        extra = write_extra_source(tmp_path)
        status, _, body = request(
            service, "POST", "/tenants/t1/add-source", {"path": str(extra)}
        )
        assert status == 200
        assert json.loads(body)["order"] == 1
        after = json.loads(request(service, "POST", "/tenants/t1/match")[2])
        assert after["pairs"] > before["pairs"]
        assert after["sources"] == ["extra.csv"]

    def test_add_source_to_unknown_tenant_is_404(self, service, tmp_path):
        extra = write_extra_source(tmp_path)
        status, _, _ = request(
            service, "POST", "/tenants/ghost/add-source", {"path": str(extra)}
        )
        assert status == 404


class TestOverload:
    def test_full_queue_answers_429_with_deterministic_retry_after(
        self, tmp_path
    ):
        registry = make_registry(tmp_path)
        registry.create(make_spec(tmp_path))
        admission = AdmissionQueue(
            max_active=1, max_waiting=0, request_deadline=10.0
        )
        service = MatchingService(registry, admission)
        service.start()
        try:
            with admission.slot("t1"):
                status, headers, body = request(
                    service, "POST", "/tenants/t1/match"
                )
            assert status == 429
            expected = admission.retry_after("t1")
            assert headers["Retry-After"] == str(expected)
            assert json.loads(body)["retry_after"] == expected
            # Capacity freed: the same request now succeeds.
            assert request(service, "POST", "/tenants/t1/match")[0] == 200
        finally:
            service.stop()


class TestBulkheadOverHttp:
    def test_poison_tenant_gets_503_while_healthy_tenants_serve(
        self, tmp_path
    ):
        registry = make_registry(tmp_path, breaker_threshold=1)
        service = MatchingService(registry, AdmissionQueue())
        service.start()
        try:
            create_tenant(service, tmp_path, tenant="healthy")
            # A supervised spec with no labels quarantines on create.
            status, _, _ = create_tenant(
                service,
                tmp_path,
                tenant="poison",
                system="leapme",
                with_alignment=False,
            )
            assert status == 400
            assert registry.get("poison").quarantined
            status, _, body = request(
                service, "POST", "/tenants/poison/match"
            )
            assert status == 503
            assert json.loads(body)["reason"] == "poison-tenant"
            assert (
                request(service, "POST", "/tenants/healthy/match")[0] == 200
            )
            # The quarantined tenant never consumed an admission slot.
            assert service.admission.stats()["admitted"] == 1
        finally:
            service.stop()


class TestConcurrentDeterminism:
    def test_parallel_clients_read_identical_bytes(self, service, tmp_path):
        create_tenant(service, tmp_path)
        serial = request(service, "POST", "/tenants/t1/match")
        assert serial[0] == 200
        results: list[tuple[int, bytes]] = [None] * 8

        def client(index: int) -> None:
            status, _, body = request(service, "POST", "/tenants/t1/match")
            results[index] = (status, body)

        threads = [
            threading.Thread(target=client, args=(index,))
            for index in range(len(results))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30)
        assert all(result == (200, serial[2]) for result in results)
        stats = service.admission.stats()
        assert stats["admitted"] == len(results) + 1
        assert stats["completed"] == len(results) + 1
