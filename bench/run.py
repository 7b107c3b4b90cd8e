"""The repository's benchmark: grid and service workloads, end to end and per layer.

Run from the repository root::

    python3 bench/run.py [--workload W] [--seed N] [--seconds S] [--trace [0|1]]

Workloads: ``grid_table2``, ``grid_engine``, ``serve_read``,
``serve_reload`` (all four when ``--workload`` is omitted).  Inputs are
generated from ``--seed``; the program is driven only through its
library API, its CLI and HTTP.  Each workload prints the host record,
its output digests, every metric as ``name value unit n=samples``, and
as its last line one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

whose metrics are the end-to-end set, or with ``--trace 1`` the
per-layer set (the traced run also repeats the untraced measurement
and prints the tracing overhead).  The exit code is non-zero when a
correctness check fails or the program's sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

import harness
import host
import spans

BENCH_DIR = Path(__file__).resolve().parent
CHECKOUT = BENCH_DIR.parent
SOURCE = CHECKOUT / "src"
SCRATCH = CHECKOUT / ".bench_tmp"
DIGESTS = BENCH_DIR / "digests.json"

WORKLOADS = ("grid_table2", "grid_engine", "serve_read", "serve_reload")
DEFAULT_SECONDS = 20

#: One BLAS thread per process.  Two pool workers (or two concurrent
#: requests) with a default OpenBLAS pool each oversubscribe two cores,
#: which makes grid timings swing by 2x; see README.md.
BLAS_THREADS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def _seed(text: str) -> int:
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError("seeds are non-negative")
    return seed


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, default=None)
    parser.add_argument("--seed", type=_seed, default=0)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="1: report per-layer metrics from a traced repeat of the run",
    )
    return parser.parse_args(argv)


def run_workload(name: str, seed: int, seconds: float, trace: bool, scratch: Path):
    if name.startswith("grid_"):
        import grid

        return grid.run(name, seed, seconds, trace, scratch)
    import serve

    return serve.run(name, seed, seconds, trace, scratch)


def report(result, seed: int, trace: bool, pinned: dict) -> int:
    """Check digests, print every line of a run; returns its exit code."""
    harness.check_pinned(result, seed, pinned)
    for key, digest in sorted(result.digests.items()):
        print(f"digest.{key} {digest}")
    for metric in result.end_to_end + result.info + (result.layers if trace else []):
        print(metric.line())
    for error in result.errors:
        print(f"check failed: {error}", file=sys.stderr)
    per_layer = harness.per_layer_names(spans.layer_names())
    print(harness.json_line(result, trace, per_layer), flush=True)
    return 0 if result.correct else 1


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SOURCE / "repro" / "__init__.py").is_file():
        print(f"error: program sources not found under {SOURCE}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SOURCE))
    os.environ.update(BLAS_THREADS)  # before numpy loads; inherited by children
    pinned = json.loads(DIGESTS.read_text())
    record = host.record()
    host.warn_if_loaded(record)
    exit_code = 0
    for name in [args.workload] if args.workload else WORKLOADS:
        print(f"workload {name} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
        for key, value in record:
            print(f"host.{key} {value}")
        SCRATCH.mkdir(exist_ok=True)
        scratch = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=SCRATCH))
        try:
            result = run_workload(name, args.seed, args.seconds, bool(args.trace), scratch)
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
            if not any(SCRATCH.iterdir()):
                SCRATCH.rmdir()
        exit_code = max(exit_code, report(result, args.seed, bool(args.trace), pinned))
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
