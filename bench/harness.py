"""Statistics, span arithmetic and output shared by every workload.

Reporting rules:

* a timing is reported as its median, plus the highest tail
  percentile with at least ten samples beyond it; a tail the sample
  cannot support is not reported;
* the gated operation latency is the interquartile mean (the mean of
  the samples between the first and third quartiles): as robust to
  stalls as the median, but it does not jump between the 4 ms steps in
  which the kernel's delayed-ACK timer quantizes HTTP latencies;
* every metric carries its sample count;
* a layer's self time is its span's duration minus the part of that
  interval covered by its child spans (children may overlap);
* the last line of a run is one JSON object with ``correct``,
  ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import hashlib
import json
import math
import statistics
from collections import defaultdict
from dataclasses import dataclass, field

#: Samples that must lie beyond a percentile before it is reported.
MIN_BEYOND = 10

#: End-to-end metrics every workload reports: ``(name, unit)``.
END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ops_per_s", "1/s"),
    ("op_iqm_ms", "ms"),
)

#: Layers exercised by both the grid and the service workloads; their
#: busy and self times are part of the machine-readable per-layer set.
SHARED_LAYERS = (
    "core.classifier.LeapmeClassifier.fit",
    "core.classifier.LeapmeClassifier.match_scores",
    "core.feature_cache.PairUniverse.rows_of",
    "core.feature_cache.PairFeatureStore.features",
    "core.pipeline.FeaturePipeline.pair_matrix",
)

#: Program-reported counters in the machine-readable per-layer set.
REPORTED_COUNTS = (
    "reported.name_distance.computed",
    "reported.name_distance.cache_hit",
)


def per_layer_names(layers: list[str]) -> list[tuple[str, str]]:
    """The machine-readable per-layer metrics: ``(name, unit)``."""
    names = [(f"{layer}.calls", "count") for layer in layers]
    for layer in SHARED_LAYERS:
        names += [(f"{layer}.busy_s", "s"), (f"{layer}.self_s", "s")]
    return names + [(name, "count") for name in REPORTED_COUNTS]


@dataclass
class Metric:
    name: str
    value: float
    unit: str
    samples: int = 1

    def line(self) -> str:
        return f"{self.name} {self.value:.6g} {self.unit} n={self.samples}"


@dataclass
class WorkloadResult:
    """What one workload run measured and checked."""

    workload: str
    end_to_end: list[Metric] = field(default_factory=list)
    #: Additional human-readable lines: workload-specific latencies,
    #: program-reported counters, tracing overhead.
    info: list[Metric] = field(default_factory=list)
    layers: list[Metric] = field(default_factory=list)
    #: Failed correctness checks (empty means correct).
    errors: list[str] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0

    @property
    def correct(self) -> bool:
        return not self.errors

    def check(self, condition: bool, message: str) -> None:
        if not condition:
            self.errors.append(message)


def median(values) -> float:
    return float(statistics.median(values))


def interquartile_mean(values) -> float:
    """Mean of the samples left after dropping the lowest and highest quarter."""
    ordered = sorted(values)
    cut = len(ordered) // 4
    return statistics.fmean(ordered[cut : len(ordered) - cut])


def tail_percentile(values, q: float) -> float | None:
    """Nearest-rank ``q`` percentile, or None with < 10 samples beyond it."""
    ordered = sorted(values)
    rank = math.ceil(q * len(ordered))
    if rank < 1 or len(ordered) - rank < MIN_BEYOND:
        return None
    return float(ordered[rank - 1])


def latency_metrics(prefix: str, seconds: list[float]) -> list[Metric]:
    """``<prefix>_p50_ms`` and, when supported, ``<prefix>_p95_ms``."""
    if not seconds:
        return []
    metrics = [Metric(f"{prefix}_p50_ms", median(seconds) * 1000, "ms", len(seconds))]
    tail = tail_percentile(seconds, 0.95)
    if tail is not None:
        metrics.append(Metric(f"{prefix}_p95_ms", tail * 1000, "ms", len(seconds)))
    return metrics


def name_distance_metrics(stage_calls: dict[str, int]) -> list[Metric]:
    """Name-distance computations, memo hits and their hit ratio."""
    computed = stage_calls.get("name_distance.computed", 0)
    hits = stage_calls.get("name_distance.cache_hit", 0)
    metrics = [
        Metric("reported.name_distance.computed", computed, "count"),
        Metric("reported.name_distance.cache_hit", hits, "count"),
    ]
    if computed + hits:
        metrics.append(Metric("reported.name_distance.hit_ratio", hits / (computed + hits), "ratio"))
    return metrics


def tracing_overhead(untraced: list[Metric], traced: list[Metric]) -> list[Metric]:
    """``traced.<name>`` and ``trace_overhead.<name>`` (traced minus untraced)."""
    base = {metric.name: metric for metric in untraced}
    lines = []
    for metric in traced:
        delta = metric.value - base[metric.name].value
        lines.append(Metric(f"traced.{metric.name}", metric.value, metric.unit, metric.samples))
        lines.append(Metric(f"trace_overhead.{metric.name}", delta, metric.unit, metric.samples))
    return lines


def union_length(intervals) -> float:
    """Total length covered by possibly overlapping ``(start, end)`` pairs."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(spans) -> dict[tuple, float]:
    """Self time of every span, keyed by ``(pid, span id)``."""
    children: dict[tuple, list[tuple[float, float]]] = defaultdict(list)
    for pid, _, parent, _, start, end, _ in spans:
        if parent is not None:
            children[(pid, parent)].append((start, end))
    result = {}
    for pid, span_id, _, _, start, end, _ in spans:
        covered = union_length(
            (max(start, s), min(end, e))
            for s, e in children.get((pid, span_id), ())
            if min(end, e) > max(start, s)
        )
        result[(pid, span_id)] = (end - start) - covered
    return result


def layer_totals(spans) -> dict[str, dict]:
    """Per span name: calls, busy seconds, self seconds, durations."""
    own = self_times(spans)
    totals: dict[str, dict] = defaultdict(
        lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "durations": []}
    )
    for pid, span_id, _, name, start, end, _ in spans:
        entry = totals[name]
        entry["calls"] += 1
        entry["busy_s"] += end - start
        entry["self_s"] += own[(pid, span_id)]
        entry["durations"].append(end - start)
    return dict(totals)


def layer_metrics(
    totals: dict[str, dict], layers: list[str], per: float = 1.0
) -> list[Metric]:
    """Calls, busy and self time of every layer that ran, divided by ``per``."""
    metrics = []
    for layer in layers:
        entry = totals.get(layer)
        if entry is None:
            continue
        calls = entry["calls"]
        metrics.append(Metric(f"{layer}.calls", calls / per, "count", calls))
        metrics.append(Metric(f"{layer}.busy_s", entry["busy_s"] / per, "s", calls))
        metrics.append(Metric(f"{layer}.self_s", entry["self_s"] / per, "s", calls))
    return metrics


def sha256_text(text: str | bytes) -> str:
    data = text.encode("utf-8") if isinstance(text, str) else text
    return hashlib.sha256(data).hexdigest()


def check_pinned(result: WorkloadResult, seed: int, pinned: dict) -> None:
    """Compare the run's digests with those pinned for this seed, if any."""
    expected = pinned.get(result.workload, {}).get(str(seed))
    if expected is None:
        return
    for key, digest in sorted(result.digests.items()):
        want = expected.get(key)
        result.check(
            want is None or want == digest,
            f"digest {key} for seed {seed} is {digest}, pinned {want}",
        )
    missing = sorted(set(expected) - set(result.digests))
    result.check(not missing, f"pinned digests not produced: {missing}")


def json_line(result: WorkloadResult, trace: bool, per_layer: list[tuple[str, str]]) -> str:
    """The closing JSON object of a run; a layer that never ran reads 0."""
    source = result.layers if trace else result.end_to_end
    wanted = per_layer if trace else list(END_TO_END)
    by_name = {metric.name: metric for metric in source}
    metrics = {}
    for name, unit in wanted:
        metric = by_name.get(name)
        metrics[name] = {"value": metric.value if metric else 0, "unit": unit}
    return json.dumps(
        {
            "correct": result.correct,
            "attempted": result.attempted,
            "failed": result.failed,
            "metrics": metrics,
        }
    )
