"""Service workloads: a real ``repro serve --http`` subprocess, driven over HTTP.

The server serves two LEAPME tenants, ``headphones`` and ``tvs``,
bootstrapped from CSVs the benchmark writes; ``--seed`` draws their
training samples, the ``/predict`` bodies and the client mix.  Load
comes from at most two closed-loop client threads in this process,
each holding one keep-alive connection; callers of the service are
integration jobs that wait for each reply.

* ``serve_read`` -- both clients send a seeded 50/50 mix of ``/match``
  and ``/predict`` (32 pairs per request).  The operation timed by
  ``op_iqm_ms`` is ``/match``.
* ``serve_reload`` -- one client sends the read mix; the other cycles a
  third tenant, ``phones``: create from all but three sources (7 of 10
  at the small scale), ``/add-source`` x 3, ``/match``, ``DELETE``.
  The operation timed by ``op_iqm_ms`` is ``/add-source``.

Set-up is server start to ``/readyz``, the tenant creates and an
untimed-for-latency warm-up that fetches every expected response body;
it runs several times, each on a fresh journal, and the last server is
the one measured.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import re
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import harness
import spans
from harness import Metric, WorkloadResult

from repro.data.csvio import save_dataset_csv
from repro.data.model import Dataset
from repro.datasets import load_dataset

BENCH_DIR = Path(__file__).resolve().parent
CHECKOUT = BENCH_DIR.parent
SCALE = "small"
#: The datasets are fixed corpora; ``--seed`` draws the tenants' training
#: samples, the predict bodies and the client mix.
DATASET_SEED = 0
TENANTS = ("headphones", "tvs")
RELOAD_TENANT = "phones"
RELOADS = 3
PREDICT_PAIRS = 32
PREDICT_BODIES = 8
SETUPS = 3
STARTUP_DEADLINE = 60.0
REQUEST_TIMEOUT = 60.0

#: The operation ``op_iqm_ms`` times, per workload.
PRIMARY = {"serve_read": "match", "serve_reload": "reload"}


@dataclass
class Inputs:
    """CSV paths and request bodies generated from one seed."""

    root: Path
    seed: int
    predict: dict[str, list[dict]] = field(default_factory=dict)
    additions: list[Path] = field(default_factory=list)

    def spec(self, tenant: str) -> dict:
        return {
            "system": "leapme",
            "instances": str(self.root / f"{tenant}.csv"),
            "alignment": str(self.root / f"{tenant}.alignment.csv"),
            "seed": self.seed,
        }


def _subset(dataset: Dataset, sources) -> Dataset:
    keep = set(sources)
    return Dataset(
        name=dataset.name,
        instances=[i for i in dataset.instances if i.source in keep],
        alignment={r: v for r, v in dataset.alignment.items() if r.source in keep},
    )


def write_inputs(root: Path, seed: int, scale: str = SCALE) -> Inputs:
    inputs = Inputs(root, seed)
    rng = random.Random(seed)
    for tenant in TENANTS:
        dataset = load_dataset(tenant, scale=scale, seed=DATASET_SEED)
        save_dataset_csv(dataset, root / f"{tenant}.csv", root / f"{tenant}.alignment.csv")
        refs = sorted(dataset.properties())
        bodies = []
        for _ in range(PREDICT_BODIES):
            pairs = []
            while len(pairs) < PREDICT_PAIRS:
                left, right = rng.sample(refs, 2)
                if left.source != right.source:
                    pairs.append([left.source, left.name, right.source, right.name])
            bodies.append({"pairs": pairs})
        inputs.predict[tenant] = bodies
    phones = load_dataset(RELOAD_TENANT, scale=scale, seed=DATASET_SEED)
    sources = sorted(phones.sources())
    base = _subset(phones, sources[:-RELOADS])
    save_dataset_csv(base, root / f"{RELOAD_TENANT}.csv", root / f"{RELOAD_TENANT}.alignment.csv")
    for source in sources[-RELOADS:]:
        path = root / f"{source}.csv"
        save_dataset_csv(_subset(phones, [source]), path, root / f"{source}.alignment.csv")
        inputs.additions.append(path)
    return inputs


class Server:
    """One ``repro serve --http`` process on an ephemeral port."""

    def __init__(self, root: Path, spans_path: Path | None = None) -> None:
        root.mkdir(parents=True, exist_ok=True)
        self.log = root / "server.log"
        serve = [
            "serve", "--http", "--port", "0",
            "--registry-journal", str(root / "registry.journal"),
            "--drain-grace", "10",
        ]
        if spans_path is None:
            command = [sys.executable, "-m", "repro", *serve]
        else:
            launcher = BENCH_DIR / "launch_server.py"
            command = [sys.executable, str(launcher), "--spans", str(spans_path), *serve]
        env = dict(os.environ, PYTHONPATH=str(CHECKOUT / "src"))
        with open(self.log, "wb") as log:
            self.process = subprocess.Popen(
                command, cwd=CHECKOUT, env=env, stdout=subprocess.DEVNULL, stderr=log
            )
        try:
            self.host, self.port = self._await_address()
        except BaseException:
            self.stop()
            raise

    def _await_address(self) -> tuple[str, int]:
        deadline = time.monotonic() + STARTUP_DEADLINE
        while time.monotonic() < deadline:
            if self.process.poll() is not None:
                raise RuntimeError(f"server exited at start-up:\n{self.log.read_text()}")
            found = re.search(r"serving on http://([^:\s]+):(\d+)", self.log.read_text())
            if found:
                return found.group(1), int(found.group(2))
            time.sleep(0.01)
        raise RuntimeError("server never announced its address")

    def await_ready(self, client: "Client") -> None:
        deadline = time.monotonic() + STARTUP_DEADLINE
        while client.call("ready", "GET", "/readyz")[0] != 200:
            if time.monotonic() > deadline:
                raise RuntimeError("/readyz never answered 200")
            time.sleep(0.01)

    def peak_rss_kb(self) -> int:
        status = Path(f"/proc/{self.process.pid}/status").read_text()
        return int(re.search(r"VmHWM:\s+(\d+)", status).group(1))

    def stop(self) -> int:
        """SIGTERM, wait for the drain, return the exit code."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        return self.process.returncode

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


class Client:
    """One closed-loop caller on one keep-alive connection.

    Every call is logged as ``(kind, status, seconds, request id)``;
    a transport error logs status ``None``.
    """

    def __init__(self, server: Server, name: str) -> None:
        self.name = name
        self.connection = http.client.HTTPConnection(
            server.host, server.port, timeout=REQUEST_TIMEOUT
        )
        self.log: list[tuple[str, int | None, float, str]] = []
        self._count = 0

    def call(self, kind: str, method: str, path: str, body=None) -> tuple[int | None, bytes]:
        self._count += 1
        request_id = f"{self.name}-{self._count}"
        headers = {spans.REQUEST_HEADER: request_id}
        payload = None
        if body is not None:
            payload = json.dumps(body).encode("utf-8")
            headers["Content-Type"] = "application/json"
        started = perf_counter()
        try:
            self.connection.request(method, path, body=payload, headers=headers)
            response = self.connection.getresponse()
            status, data = response.status, response.read()
        except (OSError, http.client.HTTPException):
            self.connection.close()
            status, data = None, b""
        self.log.append((kind, status, perf_counter() - started, request_id))
        return status, data

    def close(self) -> None:
        self.connection.close()


def _succeeded(status: int | None) -> bool:
    return status is not None and 200 <= status < 300


def tally(log) -> tuple[int, int]:
    """``(attempted, failed)``: a request fails unless it answered 2xx."""
    return len(log), sum(1 for _, status, _, _ in log if not _succeeded(status))


@dataclass
class Expected:
    """Response bodies a snapshot must reproduce byte for byte."""

    match: dict[str, bytes] = field(default_factory=dict)
    predict: dict[tuple[str, int], bytes] = field(default_factory=dict)


def set_up(server: Server, inputs: Inputs) -> Expected:
    """Readiness, tenant creates, warm-up; returns the expected bodies."""
    client = Client(server, "setup")
    try:
        server.await_ready(client)
        for tenant in TENANTS:
            status, body = client.call("create", "POST", f"/tenants/{tenant}", inputs.spec(tenant))
            if status != 201:
                raise RuntimeError(f"creating {tenant} answered {status}: {body[:300]!r}")
        expected = Expected()
        for tenant in TENANTS:
            expected.match[tenant] = client.call("match", "POST", f"/tenants/{tenant}/match")[1]
            for index, request in enumerate(inputs.predict[tenant]):
                status, body = client.call(
                    "predict", "POST", f"/tenants/{tenant}/predict", request
                )
                expected.predict[(tenant, index)] = body
        attempted, failed = tally(client.log)
        if failed:
            raise RuntimeError(f"{failed} of {attempted} set-up requests failed")
        return expected
    finally:
        client.close()


def read_loop(client: Client, inputs: Inputs, expected: Expected, deadline: float, errors: list) -> None:
    rng = random.Random(f"{inputs.seed}:{client.name}")
    while time.monotonic() < deadline:
        tenant = rng.choice(TENANTS)
        if rng.random() < 0.5:
            status, body = client.call("match", "POST", f"/tenants/{tenant}/match")
            want = expected.match[tenant]
        else:
            index = rng.randrange(PREDICT_BODIES)
            status, body = client.call(
                "predict", "POST", f"/tenants/{tenant}/predict", inputs.predict[tenant][index]
            )
            want = expected.predict[(tenant, index)]
        if status == 200 and body != want:
            errors.append(f"{client.log[-1][0]} body for {tenant} changed within one snapshot")


def reload_loop(client: Client, inputs: Inputs, deadline: float, cycles: list) -> None:
    """Create, grow by three sources, match, delete -- until the deadline."""
    tenant = RELOAD_TENANT
    steps = [("create", "POST", f"/tenants/{tenant}", inputs.spec(tenant))]
    steps += [
        ("reload", "POST", f"/tenants/{tenant}/add-source", {"path": str(path)})
        for path in inputs.additions
    ]
    steps += [
        ("reload_match", "POST", f"/tenants/{tenant}/match", None),
        ("delete", "DELETE", f"/tenants/{tenant}", None),
    ]
    while time.monotonic() < deadline:
        bodies = []
        for kind, method, path, body in steps:
            if time.monotonic() >= deadline:
                return
            bodies.append(client.call(kind, method, path, body)[1])
        cycles.append(bodies)


def measure(server: Server, workload: str, inputs: Inputs, expected: Expected, seconds: float):
    """Run the clients for ``seconds``; returns (logs, window, errors, cycles)."""
    readers = 2 if workload == "serve_read" else 1
    clients = [Client(server, f"read{index}") for index in range(readers)]
    errors: list[str] = []
    cycles: list[list[bytes]] = []
    deadline = time.monotonic() + seconds
    threads = [
        threading.Thread(
            target=read_loop, args=(c, inputs, expected, deadline, errors), daemon=True
        )
        for c in clients
    ]
    if workload == "serve_reload":
        writer = Client(server, "write")
        clients.append(writer)
        threads.append(
            threading.Thread(
                target=reload_loop, args=(writer, inputs, deadline, cycles), daemon=True
            )
        )
    started = perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(seconds + 2 * REQUEST_TIMEOUT)
    window = perf_counter() - started
    for client in clients:
        client.close()
    if any(thread.is_alive() for thread in threads):
        raise RuntimeError("a client did not finish within its request timeout")
    log = [entry for client in clients for entry in client.log]
    return log, window, errors, cycles


def _statz(server: Server) -> dict:
    client = Client(server, "statz")
    try:
        status, body = client.call("statz", "GET", "/statz")
    finally:
        client.close()
    return json.loads(body) if status == 200 else {}


def _reported(statz: dict) -> list[Metric]:
    metrics = [
        Metric(f"reported.admission.{key}", value, "count")
        for key, value in sorted(statz.get("admission", {}).items())
    ]
    calls: dict[str, int] = {}
    for tenant in statz.get("tenants", {}).values():
        for name, value in tenant.get("stage_calls", {}).items():
            calls[name] = calls.get(name, 0) + value
    return metrics + harness.name_distance_metrics(calls)


def _latencies(log, kind: str) -> list[float]:
    return [seconds for k, status, seconds, _ in log if k == kind and _succeeded(status)]


def _throughput(workload: str, log, window: float) -> list[Metric]:
    attempted, failed = tally(log)
    primary = _latencies(log, PRIMARY[workload])
    return [
        Metric("ops_per_s", (attempted - failed) / window, "1/s", attempted),
        Metric(
            "op_iqm_ms",
            harness.interquartile_mean(primary) * 1000 if primary else 0.0,
            "ms",
            len(primary),
        ),
    ]


def _check_cycles(result: WorkloadResult, cycles: list) -> None:
    if not cycles:
        result.check(False, "no reload cycle completed within the window")
        return
    result.check(
        all(cycle == cycles[0] for cycle in cycles),
        "reload cycles disagree: create/add-source/match bodies differ",
    )
    result.digests[f"{RELOAD_TENANT}.match"] = harness.sha256_text(cycles[0][-2])


def run(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    scratch: Path,
    *,
    setups: int = SETUPS,
    scale: str = SCALE,
) -> WorkloadResult:
    result = WorkloadResult(workload)
    inputs = write_inputs(scratch, seed, scale)
    setup_times = []
    expected_runs = []
    for index in range(setups):
        started = perf_counter()
        with Server(scratch / f"server{index}") as server:
            expected_runs.append(set_up(server, inputs))
            setup_times.append(perf_counter() - started)
            if index == setups - 1:
                log, window, errors, cycles = measure(
                    server, workload, inputs, expected_runs[0], seconds
                )
                rss_kb = server.peak_rss_kb()
                statz = _statz(server)
        code = server.process.returncode
        result.check(code == 128 + signal.SIGTERM, f"server exited {code} after SIGTERM")

    expected = expected_runs[0]
    result.check(
        all(e == expected for e in expected_runs),
        "cold bootstraps of the same inputs answered different bodies",
    )
    for tenant in TENANTS:
        result.digests[f"{tenant}.match"] = harness.sha256_text(expected.match[tenant])
        result.digests[f"{tenant}.predict"] = harness.sha256_text(expected.predict[(tenant, 0)])
    for error in sorted(set(errors)):
        result.check(False, error)
    if workload == "serve_reload":
        _check_cycles(result, cycles)

    result.attempted, result.failed = tally(log)
    result.end_to_end = [
        Metric("setup_s", harness.median(setup_times), "s", len(setup_times)),
        Metric("peak_rss_mb", rss_kb / 1024, "MB"),
        *_throughput(workload, log, window),
    ]
    for kind in ("match", "predict", "create", "reload", "delete"):
        result.info += harness.latency_metrics(kind, _latencies(log, kind))
    result.info += [
        Metric("fail_ratio", result.failed / max(result.attempted, 1), "ratio", result.attempted),
        Metric("window_s", window, "s"),
        *_reported(statz),
    ]
    if trace:
        _trace(workload, inputs, seconds, scratch, result)
    return result


def _trace(workload: str, inputs: Inputs, seconds: float, scratch: Path, result: WorkloadResult) -> None:
    """A second server with every layer wrapped, measured the same way."""
    spans_path = scratch / "server-spans.json"
    with Server(scratch / "traced", spans_path) as server:
        expected = set_up(server, inputs)
        log, window, _, _ = measure(server, workload, inputs, expected, seconds)
        statz = _statz(server)
    recorded = spans.load_spans([spans_path]) if spans_path.exists() else []
    result.check(bool(recorded), "traced server wrote no spans")
    totals = harness.layer_totals(recorded)
    result.layers = harness.layer_metrics(totals, spans.layer_names())

    client_seconds = {request_id: s for _, status, s, request_id in log if status is not None}
    handled = {
        tag: end - start
        for _, _, _, name, start, end, tag in recorded
        if name == spans.HANDLE and tag in client_seconds
    }
    transport = [client_seconds[tag] - handle for tag, handle in handled.items()]
    wait = totals.get(spans.ADMISSION_WAIT, {}).get("durations", [])
    handle = list(handled.values())
    for prefix, values in (
        ("serve.admission.wait", wait),
        ("serve.server.handle", handle),
        ("serve.transport", transport),
    ):
        result.layers += harness.latency_metrics(prefix, values)
    result.layers += _reported(statz)

    result.info += harness.tracing_overhead(result.end_to_end, _throughput(workload, log, window))
