"""Tests of the benchmark harness: ``python -m pytest bench -q``.

Covers the reporting rules (percentiles, self time, failure counting,
digest gating), the agreement between ``BENCHMARK.json`` and the code,
the refusal to run without the program's sources, and a few-second
smoke of every workload at the tiny scale.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import grid
import harness
import run
import serve
import spans
from harness import Metric, WorkloadResult

CHECKOUT = Path(__file__).resolve().parent.parent


# -- percentile rule ---------------------------------------------------------
def test_tail_percentile_needs_ten_samples_beyond():
    assert harness.tail_percentile(range(200), 0.95) == 189.0
    assert harness.tail_percentile(range(199), 0.95) is None
    assert harness.tail_percentile(range(100), 0.90) == 89.0
    assert harness.tail_percentile([], 0.95) is None


def test_latency_metrics_report_median_always_and_tail_when_supported():
    short = harness.latency_metrics("match", [0.001] * 50)
    assert [m.name for m in short] == ["match_p50_ms"]
    assert short[0].value == pytest.approx(1.0) and short[0].samples == 50
    long = harness.latency_metrics("match", [i / 1000 for i in range(1, 201)])
    assert [m.name for m in long] == ["match_p50_ms", "match_p95_ms"]
    assert long[1].value == pytest.approx(190.0)
    assert harness.latency_metrics("match", []) == []


# -- self time -----------------------------------------------------------------
def _span(span_id, parent, start, end, pid=1, name="layer"):
    return (pid, span_id, parent, name, start, end, None)


def test_union_length_merges_overlaps():
    assert harness.union_length([(1, 3), (2, 5), (7, 8)]) == 5
    assert harness.union_length([(0, 1), (1, 2)]) == 2
    assert harness.union_length([]) == 0


def test_self_time_subtracts_nested_and_overlapping_children():
    recorded = [
        _span(1, None, 0.0, 10.0),
        _span(2, 1, 1.0, 3.0),
        _span(3, 1, 2.0, 5.0),  # overlaps child 2
        _span(4, 1, 7.0, 8.0),
        _span(5, 2, 1.5, 2.5),  # grandchild: counts against 2, not 1
        _span(6, 1, 9.0, 12.0),  # runs past its parent: clipped to 1.0
    ]
    own = harness.self_times(recorded)
    assert own[(1, 1)] == pytest.approx(10.0 - 5.0 - 1.0)
    assert own[(1, 2)] == pytest.approx(2.0 - 1.0)
    assert own[(1, 5)] == pytest.approx(1.0)


def test_self_time_keeps_processes_apart():
    # A forked worker reuses span ids; its spans never parent ours.
    recorded = [_span(1, None, 0.0, 4.0, pid=1), _span(2, 1, 0.0, 4.0, pid=2)]
    own = harness.self_times(recorded)
    assert own[(1, 1)] == pytest.approx(4.0)


def test_layer_totals_and_per_execution_metrics():
    recorded = [
        _span(1, None, 0.0, 2.0, name="a"),
        _span(2, 1, 0.5, 1.0, name="b"),
        _span(3, None, 3.0, 4.0, name="a"),
    ]
    totals = harness.layer_totals(recorded)
    assert totals["a"]["calls"] == 2 and totals["a"]["busy_s"] == pytest.approx(3.0)
    assert totals["a"]["self_s"] == pytest.approx(2.5)
    metrics = {m.name: m.value for m in harness.layer_metrics(totals, ["a", "absent"], per=2)}
    assert metrics == {"a.calls": 1.0, "a.busy_s": 1.5, "a.self_s": 1.25}


def test_recorder_nests_spans_per_thread():
    recorder = spans.Recorder()
    outer = recorder.begin("outer")
    inner = recorder.begin("inner", tag="r-1")
    recorder.end(inner)
    recorder.end(outer)
    (_, inner_id, inner_parent, _, _, _, tag), (_, outer_id, outer_parent, *_) = recorder.spans
    assert inner_parent == outer_id and outer_parent is None and tag == "r-1"


# -- failure counting ----------------------------------------------------------
def test_tally_counts_non_2xx_and_transport_errors_as_failed():
    log = [
        ("match", 200, 0.1, "a-1"),
        ("create", 201, 0.1, "a-2"),
        ("match", 404, 0.1, "a-3"),
        ("predict", 500, 0.1, "a-4"),
        ("predict", None, 0.1, "a-5"),
    ]
    assert serve.tally(log) == (5, 3)
    assert serve.tally([]) == (0, 0)


# -- digest gate ---------------------------------------------------------------
def _result() -> WorkloadResult:
    result = WorkloadResult("grid_engine", attempted=54)
    result.end_to_end = [Metric(name, 1.5, unit) for name, unit in harness.END_TO_END]
    result.digests["grid"] = "abc"
    return result


def test_digest_mismatch_exits_non_zero(capsys):
    pinned = {"grid_engine": {"0": {"grid": "def"}}}
    assert run.report(_result(), 0, False, pinned) == 1
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert last["correct"] is False


def test_matching_or_unpinned_digest_exits_zero(capsys):
    assert run.report(_result(), 0, False, {"grid_engine": {"0": {"grid": "abc"}}}) == 0
    assert run.report(_result(), 7, False, {"grid_engine": {"0": {"grid": "def"}}}) == 0
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert list(last["metrics"]) == [name for name, _ in harness.END_TO_END]


# -- BENCHMARK.json agrees with the code ---------------------------------------
def test_benchmark_json_matches_code():
    config = json.loads((CHECKOUT / "BENCHMARK.json").read_text())
    assert config["paths"] == ["bench"]
    assert config["command"] == ["python3", "bench/run.py"]
    assert config["run_seconds"] == run.DEFAULT_SECONDS
    assert [w["name"] for w in config["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in config["end_to_end"]] == list(harness.END_TO_END)
    assert [(m["name"], m["unit"]) for m in config["per_layer"]] == harness.per_layer_names(
        spans.layer_names()
    )
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copy(CHECKOUT / "BENCHMARK.json", tmp_path)
    shutil.copytree(CHECKOUT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    completed = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "grid_engine", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout


# -- smoke of every workload at the tiny scale ---------------------------------
def _assert_complete(result: WorkloadResult, trace: bool) -> None:
    assert result.correct, result.errors
    assert result.attempted > 0 and result.failed == 0
    assert [m.name for m in result.end_to_end] == [name for name, _ in harness.END_TO_END]
    assert all(m.value > 0 for m in result.end_to_end)
    if trace:
        names = {m.name for m in result.layers}
        assert "core.classifier.LeapmeClassifier.fit.calls" in names


@pytest.mark.parametrize("workload", sorted(grid.WORKLOADS))
def test_grid_workload_smoke(workload, tmp_path):
    result = grid.run(
        workload, 0, 0.0, True, tmp_path, setups=1, scale="tiny", min_executions=1
    )
    _assert_complete(result, trace=True)
    assert "grid" in result.digests


@pytest.mark.parametrize("workload", sorted(serve.PRIMARY))
def test_serve_workload_smoke(workload, tmp_path):
    result = serve.run(workload, 0, 1.5, True, tmp_path, setups=1, scale="tiny")
    _assert_complete(result, trace=True)
    assert {"headphones.match", "tvs.predict"} <= set(result.digests)
    transport = [m for m in result.layers if m.name == "serve.transport_p50_ms"]
    assert transport and transport[0].samples > 0
