"""Snapshot scoring: one forward pass per snapshot, lookups, no stall.

``/match`` and in-universe ``/predict`` read one memoised score vector
per :class:`~repro.serve.registry.TenantState`, computed lazily by the
first read.  These tests count the network's forward passes, pin the
lookup against direct scoring byte for byte, and time keep-alive
requests to catch the delayed-ACK stall.
"""

import http.client
import json
import threading
import time

import pytest

from repro.core.classifier import LeapmeClassifier
from repro.data.pairs import LabeledPair
from repro.serve import TenantRegistry

from tests.serve.conftest import (
    make_registry,
    make_spec,
    match_body,
    write_extra_source,
)


@pytest.fixture()
def forward_passes(monkeypatch):
    """Counts ``LeapmeClassifier.match_scores`` calls (reset by the test)."""
    calls = []
    original = LeapmeClassifier.match_scores

    def counted(self, features):
        calls.append(len(features))
        return original(self, features)

    monkeypatch.setattr(LeapmeClassifier, "match_scores", counted)
    return calls


def cross_pairs(registry, tenant_id):
    """Every cross-source pair of the tenant, in both orientations."""
    refs = sorted(registry.get(tenant_id).state.dataset.properties())
    return [
        [left.source, left.name, right.source, right.name]
        for left in refs
        for right in refs
        if left.source != right.source
    ]


def scored_body(registry, tenant_id, raw_pairs):
    """The ``/predict`` body built from direct ``score_pairs``."""
    state = registry.get(tenant_id).state
    refs = state.property_index()
    pairs = [labeled(state, refs, row) for row in raw_pairs]
    scores = state.matcher.score_pairs(state.dataset, pairs)
    threshold = registry.predict_payload(tenant_id, [])["threshold"]
    return {
        "tenant": tenant_id,
        "threshold": threshold,
        "scores": [f"{float(score):.4f}" for score in scores],
        "decisions": [bool(score >= threshold) for score in scores],
    }


def labeled(state, refs, row):
    left, right = refs[(row[0], row[1])], refs[(row[2], row[3])]
    return LabeledPair(left, right, state.dataset.is_match(left, right))


class TestScoreOnce:
    def test_match_requests_share_one_forward_pass(
        self, tmp_path, forward_passes
    ):
        registry = make_registry(tmp_path)
        registry.create(make_spec(tmp_path, system="leapme"))
        forward_passes.clear()
        bodies = {match_body(registry, "t1") for _ in range(5)}
        assert len(bodies) == 1
        assert len(forward_passes) == 1

    def test_reload_scores_once_on_first_read_of_new_snapshot(
        self, tmp_path, forward_passes
    ):
        registry = make_registry(tmp_path)
        registry.create(make_spec(tmp_path, system="leapme"))
        match_body(registry, "t1")
        forward_passes.clear()
        registry.add_source("t1", write_extra_source(tmp_path))
        assert forward_passes == []  # the reload itself scores nothing
        reloaded = {match_body(registry, "t1") for _ in range(3)}
        assert len(reloaded) == 1
        assert len(forward_passes) == 1

    def test_in_universe_predict_reuses_the_snapshot_scores(
        self, tmp_path, forward_passes
    ):
        registry = make_registry(tmp_path)
        registry.create(make_spec(tmp_path, system="leapme"))
        forward_passes.clear()
        match_body(registry, "t1")
        registry.predict_payload("t1", cross_pairs(registry, "t1"))
        assert len(forward_passes) == 1

    def test_concurrent_first_reads_run_one_forward_pass(
        self, tmp_path, forward_passes
    ):
        registry = make_registry(tmp_path)
        registry.create(make_spec(tmp_path, system="leapme"))
        forward_passes.clear()
        barrier = threading.Barrier(4)
        bodies = []

        def read():
            barrier.wait(timeout=10)
            bodies.append(match_body(registry, "t1"))

        threads = [threading.Thread(target=read) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert len(bodies) == 4
        assert len(set(bodies)) == 1
        assert len(forward_passes) == 1

    def test_request_holding_the_old_snapshot_gets_the_old_body(self, tmp_path):
        registry = make_registry(tmp_path)
        registry.create(make_spec(tmp_path, system="leapme"))
        extra = write_extra_source(tmp_path)
        original = LeapmeClassifier.match_scores
        swapped = []

        def reload_mid_request(self, features):
            # The first read is scoring the old snapshot when the
            # reload swaps a new one in underneath it.
            if not swapped:
                swapped.append(registry.add_source("t1", extra))
            return original(self, features)

        try:
            LeapmeClassifier.match_scores = reload_mid_request
            held = match_body(registry, "t1")
        finally:
            LeapmeClassifier.match_scores = original
        assert swapped

        before = TenantRegistry()
        before.load()
        before.create(make_spec(tmp_path, system="leapme"))
        after = TenantRegistry()
        after.load()
        after.create(make_spec(tmp_path, system="leapme"))
        after.add_source("t1", extra)
        assert held == match_body(before, "t1")
        assert match_body(registry, "t1") == match_body(after, "t1")
        assert held != match_body(registry, "t1")


class TestPredictLookup:
    @pytest.mark.parametrize("blocking", [None, "minhash"])
    def test_lookup_body_equals_scored_body(self, tmp_path, blocking):
        registry = make_registry(tmp_path)
        registry.create(make_spec(tmp_path, system="leapme", blocking=blocking))
        registry.add_source("t1", write_extra_source(tmp_path))
        raw_pairs = cross_pairs(registry, "t1")
        universe = registry.get("t1").state.universe
        if blocking is not None:
            # The blocked case mixes lookups with pruned-pair fallbacks.
            assert len(universe) * 2 < len(raw_pairs)
        assert registry.predict_payload("t1", raw_pairs) == scored_body(
            registry, "t1", raw_pairs
        )

    def test_pruned_pairs_fall_back_to_scoring(self, tmp_path, forward_passes):
        registry = make_registry(tmp_path)
        registry.create(make_spec(tmp_path, system="leapme", blocking="minhash"))
        registry.add_source("t1", write_extra_source(tmp_path))
        universe = registry.get("t1").state.universe
        kept = {pair.key for pair in universe.pairs}
        raw_pairs = cross_pairs(registry, "t1")
        state = registry.get("t1").state
        refs = state.property_index()
        pruned = [
            row for row in raw_pairs
            if labeled(state, refs, row).key not in kept
        ]
        assert pruned
        forward_passes.clear()
        registry.predict_payload("t1", pruned)
        # Only the pruned pairs are scored; no universe pass is needed.
        assert forward_passes == [len(pruned)]


class TestTransport:
    def test_keep_alive_requests_do_not_stall(self, service, tmp_path):
        service.registry.create(make_spec(tmp_path))
        body = json.dumps(
            {"pairs": [["srcA", "weight", "srcB", "wt"]]}
        ).encode("utf-8")
        headers = {"Content-Type": "application/json"}
        connection = http.client.HTTPConnection(
            service.host, service.port, timeout=30
        )
        try:
            connection.request("POST", "/tenants/t1/predict", body, headers)
            connection.getresponse().read()
            started = time.perf_counter()
            for _ in range(20):
                connection.request("POST", "/tenants/t1/predict", body, headers)
                response = connection.getresponse()
                response.read()
                assert response.status == 200
            elapsed = time.perf_counter() - started
        finally:
            connection.close()
        # With Nagle's algorithm on, each response waits ~40 ms for the
        # client's delayed ACK: 20 requests take at least 0.8 s.
        assert elapsed < 0.4
