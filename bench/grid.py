"""Grid workloads: the paper's repeated-split protocol through the library API.

Both workloads run the 9-config feature grid x train fractions
{0.2, 0.8} x 3 repetitions on a 2-worker pool with shared feature
stores, exactly as users call ``ExperimentRunner.run``:

* ``grid_table2`` -- headphones/small with the paper's network
  (128-64-2, 20 epochs): training does most of the work;
* ``grid_engine`` -- cameras/small with a light network (hidden 8,
  1 epoch): pair sets, store gathers, the score forward pass and the
  parent's memory do the work.

One operation is one full grid execution.  Each execution starts from
a cleared name-distance memo, as a fresh ``repro evaluate`` process
would, and draws its source splits from its own sub-seed of
``--seed``: which sources train sets the work of a grid, so a run's
median covers several draws instead of one.  Executions repeat until
``seconds`` have passed (at least three); the first is then executed
again and must agree cell for cell.  Set-up is dataset generation plus
embedding training, repeated and reported as a median.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import resource
import time
from pathlib import Path
from time import perf_counter

import harness
import spans
from harness import Metric, WorkloadResult

from repro.core import FeatureConfig, LeapmeConfig, LeapmeMatcher, pipeline
from repro.data.splits import repeated_source_splits
from repro.datasets import build_domain_embeddings, load_dataset, registry
from repro.evaluation import ExperimentRunner
from repro.nn.schedule import TrainingSchedule

FRACTIONS = (0.2, 0.8)
REPETITIONS = 3
WORKERS = 2
MIN_EXECUTIONS = 3
SETUPS = 9
SCALE = "small"
#: The datasets are fixed corpora, as in the paper; ``--seed`` draws the
#: source splits and training samples.
DATASET_SEED = 0

WORKLOADS = {
    "grid_table2": ("headphones", "paper"),
    "grid_engine": ("cameras", "light"),
}


def _network(kind: str) -> LeapmeConfig | None:
    if kind == "paper":
        return None  # the matcher's default: the paper's network
    return LeapmeConfig(hidden_sizes=(8,), schedule=TrainingSchedule.constant(1, 1e-3))


def _clear(module, name: str) -> None:
    """Drop a process-wide cache that a fresh process would not have."""
    clear = getattr(module, name, None)
    if clear is not None:
        clear()


def sub_seed(seed: int, index: int) -> int:
    """The grid seed of a run's ``index``-th execution."""
    digest = hashlib.sha256(f"{seed}:{index}".encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big")


def _reap_children(timeout: float = 60.0) -> None:
    """Wait until every pool worker has exited (and flushed its spans)."""
    deadline = time.monotonic() + timeout
    while multiprocessing.active_children():
        if time.monotonic() > deadline:
            for child in multiprocessing.active_children():
                child.kill()
                child.join(5)
            return
        time.sleep(0.02)


def _signature(results) -> list:
    """Per cell and repetition ``(TP, FP, FN)``, plus skipped counts."""
    return [
        [
            r.matcher_name,
            r.settings.train_fraction,
            [[q.true_positives, q.false_positives, q.false_negatives] for q in r.qualities],
            r.skipped_repetitions,
        ]
        for r in results
    ]


class _Grid:
    """One dataset + embeddings + runner; executes and times full grids."""

    def __init__(self, dataset, embeddings, network: str, min_executions: int) -> None:
        self.dataset = dataset
        self.min_executions = min_executions
        #: Matchers the parent built during the latest execution; their
        #: pipelines hold the program's own featurization counters.
        self.matchers: list = []
        config = _network(network)

        def factory(feature_config):
            def build():
                matcher = LeapmeMatcher(embeddings, feature_config, config=config)
                self.matchers.append(matcher)
                return matcher

            return build

        self.runner = ExperimentRunner({c.label(): factory(c) for c in FeatureConfig.grid()})
        self.cells = len(FeatureConfig.grid()) * len(FRACTIONS) * REPETITIONS

    def execute(self, seed: int) -> tuple[list, float]:
        _clear(pipeline, "clear_distance_memo")
        self.matchers.clear()
        started = perf_counter()
        results = self.runner.run(
            [self.dataset],
            train_fractions=FRACTIONS,
            repetitions=REPETITIONS,
            seed=seed,
            workers=WORKERS,
        )
        wall = perf_counter() - started
        _reap_children()
        return results, wall

    def executions(self, seed: int, seconds: float) -> list[tuple[list, float]]:
        done = []
        started = perf_counter()
        while len(done) < self.min_executions or perf_counter() - started < seconds:
            done.append(self.execute(sub_seed(seed, len(done))))
        return done

    def throughput(self, executions) -> list[Metric]:
        walls = [wall for _, wall in executions]
        return [
            Metric("ops_per_s", self.cells * len(walls) / sum(walls), "1/s", len(walls)),
            Metric("op_iqm_ms", harness.interquartile_mean(walls) * 1000, "ms", len(walls)),
        ]

    def reported(self, results) -> list[Metric]:
        """Program-reported counters of one execution."""
        phases: dict[str, float] = {}
        for result in results:
            for name, value in result.timings.as_dict().items():
                phases[name] = phases.get(name, 0.0) + value
        metrics = [Metric(f"reported.phase.{k}_s", v, "s", len(results)) for k, v in phases.items()]
        stage_seconds: dict[str, float] = {}
        stage_calls: dict[str, int] = {}
        for matcher in self.matchers:
            for name, value in getattr(matcher.pipeline, "stage_seconds", {}).items():
                stage_seconds[name] = stage_seconds.get(name, 0.0) + value
            for name, value in getattr(matcher.pipeline, "stage_calls", {}).items():
                stage_calls[name] = stage_calls.get(name, 0) + value
        metrics += [Metric(f"reported.stage_seconds.{k}", v, "s") for k, v in sorted(stage_seconds.items())]
        metrics += [Metric(f"reported.stage_calls.{k}", v, "count") for k, v in sorted(stage_calls.items())]
        return metrics + harness.name_distance_metrics(stage_calls)


def run(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    scratch: Path,
    *,
    setups: int = SETUPS,
    scale: str = SCALE,
    min_executions: int = MIN_EXECUTIONS,
) -> WorkloadResult:
    dataset_name, network = WORKLOADS[workload]
    result = WorkloadResult(workload)

    setup_times = []
    for _ in range(setups):
        _clear(registry, "clear_embedding_cache")
        started = perf_counter()
        dataset = load_dataset(dataset_name, scale=scale, seed=DATASET_SEED)
        embeddings = build_domain_embeddings(dataset_name, scale=scale)
        setup_times.append(perf_counter() - started)

    grid = _Grid(dataset, embeddings, network, min_executions)
    executions = grid.executions(seed, seconds)
    for index in range(len(executions)):
        # Distinct fractions must train on distinct source sets, or half
        # the grid would repeat the other half.
        low, high = (
            [
                frozenset(split.train_sources)
                for split in repeated_source_splits(
                    dataset, fraction, REPETITIONS, sub_seed(seed, index)
                )
            ]
            for fraction in FRACTIONS
        )
        result.check(
            all(a != b for a, b in zip(low, high)),
            f"fractions {FRACTIONS} share an effective training split",
        )
    signatures = [_signature(results) for results, _ in executions]
    repeat, _ = grid.execute(sub_seed(seed, 0))
    result.check(
        _signature(repeat) == signatures[0],
        "repeating a grid execution changed its per-cell (TP, FP, FN)",
    )
    result.digests["grid"] = harness.sha256_text(repr(signatures[:min_executions]))
    result.attempted = grid.cells * len(executions)
    result.failed = sum(r.skipped_repetitions for results, _ in executions for r in results)

    parent_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result.end_to_end = [
        Metric("setup_s", harness.median(setup_times), "s", len(setup_times)),
        # Pool workers are forks: their peak counts pages shared with the
        # parent and follows the parent's heap at fork time, so it is
        # printed below but not added in.
        Metric("peak_rss_mb", parent_kb / 1024, "MB"),
        *grid.throughput(executions),
    ]
    walls = [wall for _, wall in executions]
    result.info += [
        Metric("grid_wall_s", harness.median(walls), "s", len(walls)),
        Metric("mean_f1", sum(r.f1 for r in repeat) / len(repeat), "f1", len(repeat)),
        Metric("fail_ratio", result.failed / result.attempted, "ratio", result.attempted),
        Metric("peak_rss_worker_mb", child_kb / 1024, "MB"),
        *grid.reported(repeat),
    ]
    if trace:
        _trace(grid, seed, seconds, scratch, result)
    return result


def _trace(
    grid: _Grid, seed: int, seconds: float, scratch: Path, result: WorkloadResult
) -> None:
    """Repeat the executions with every layer wrapped; per-execution layers."""
    dump_dir = scratch / "grid-spans"
    dump_dir.mkdir(parents=True, exist_ok=True)
    recorder = spans.Recorder(dump_dir)
    absent, uninstall = spans.install(recorder)
    try:
        executions = grid.executions(seed, seconds)
    finally:
        uninstall()
    recorded = recorder.spans + spans.load_spans(sorted(dump_dir.glob("spans-*.json")))
    totals = harness.layer_totals(recorded)
    per = len(executions)
    result.layers = harness.layer_metrics(totals, spans.layer_names(), per)
    for side in ("worker", "parent"):
        busy = totals.get(f"evaluation.parallel.{side}", {}).get("busy_s", 0.0)
        result.layers.append(Metric(f"evaluation.parallel.{side}_busy_s", busy / per, "s", per))
    result.layers += [
        m for m in grid.reported(executions[-1][0]) if m.name.startswith("reported.name_distance")
    ]
    result.info += [Metric(f"absent.{name}", 1, "count") for name in absent]
    result.info += harness.tracing_overhead(result.end_to_end, grid.throughput(executions))
