"""Record the benchmark's baseline: every workload on ten seeds, in two sets.

Usage (from the repository root)::

    python3 bench/baseline.py

Runs ``bench/run.py`` once per (set, workload, seed), one run at a
time, and writes ``bench/baseline.json``: each end-to-end metric's
median, quartiles and spread (interquartile range over median) per set,
the digests of seeds 0 and 1, the host record and every run's wall
time.  A metric passes when its spread stays within its bound in every
set (``setup_s`` excepted) and the second set's median is no worse than
the first's by more than the bound.  Exits non-zero when one fails.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
CHECKOUT = BENCH_DIR.parent
OUT = BENCH_DIR / "baseline.json"
SETS = 2
SEEDS = range(10)
PINNED_SEEDS = (0, 1)


def run_once(workload: str, seed: int) -> dict:
    started = time.monotonic()
    completed = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed)],
        cwd=CHECKOUT, capture_output=True, text=True, timeout=600,
    )
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} failed:\n{completed.stderr}")
    result = json.loads(lines[-1])
    return {
        "metrics": {name: entry["value"] for name, entry in result["metrics"].items()},
        "digests": dict(
            line.removeprefix("digest.").split(" ", 1)
            for line in lines
            if line.startswith("digest.")
        ),
        "host": dict(
            line.removeprefix("host.").split(" ", 1) for line in lines if line.startswith("host.")
        ),
        "wall_s": round(time.monotonic() - started, 2),
    }


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def judge(sets: list[dict], config: dict) -> dict:
    """Per ``<workload>.<metric>``: worst spread, median change, verdict."""
    verdicts = {}
    for workload in sets[0]:
        for metric in config["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            summaries = [s[workload]["metrics"][name] for s in sets]
            spread = max(summary["spread"] for summary in summaries)
            change = summaries[-1]["median"] / summaries[0]["median"] - 1
            worse = -change if metric["better"] == "higher" else change
            verdicts[f"{workload}.{name}"] = {
                "bound": bound,
                "max_spread": spread,
                "median_change": change,
                "ok": worse <= bound and (name == "setup_s" or spread <= bound),
            }
    return verdicts


def main() -> int:
    config = json.loads((CHECKOUT / "BENCHMARK.json").read_text())
    sets, digests, host = [], {}, {}
    for index in range(SETS):
        current = {}
        for workload in (w["name"] for w in config["workloads"]):
            runs = [run_once(workload, seed) for seed in SEEDS]
            host = runs[-1]["host"]
            for seed in PINNED_SEEDS:
                first = digests.setdefault(workload, {}).setdefault(str(seed), runs[seed]["digests"])
                if first != runs[seed]["digests"]:
                    raise SystemExit(f"{workload} seed {seed}: digests differ between sets")
            current[workload] = {
                "metrics": {
                    metric["name"]: summarize([r["metrics"][metric["name"]] for r in runs])
                    for metric in config["end_to_end"]
                },
                "run_wall_s": [r["wall_s"] for r in runs],
            }
            for name, summary in current[workload]["metrics"].items():
                print(
                    f"set {index + 1} {workload} {name} median {summary['median']:.6g} "
                    f"spread {summary['spread']:.4f}",
                    flush=True,
                )
        sets.append(current)
    verdicts = judge(sets, config)
    for key, verdict in verdicts.items():
        print(
            f"{'ok  ' if verdict['ok'] else 'FAIL'} {key} spread {verdict['max_spread']:.4f} "
            f"change {verdict['median_change']:+.4f} bound {verdict['bound']}"
        )
    payload = {
        "seeds": list(SEEDS),
        "run_seconds": config["run_seconds"],
        "host": host,
        "sets": sets,
        "verdicts": verdicts,
        "digests": digests,
    }
    partial = OUT.with_suffix(".partial")
    partial.write_text(json.dumps(payload, indent=1) + "\n")
    partial.replace(OUT)  # an interrupted recording keeps the previous baseline
    return 0 if all(v["ok"] for v in verdicts.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
