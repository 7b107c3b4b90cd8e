# Developer convenience targets.

.PHONY: install test lint lint-concurrency check chaos serve-smoke serve-http-smoke bench-smoke bench-trace bench-train bench bench-features bench-kernel bench-blocking bench-suite bench-tiny bench-paper examples lines

install:
	pip install -e . || python setup.py develop

test:
	pytest tests/

# Invariant-enforcing static analysis (repro.analysis): unseeded RNG,
# non-atomic writes, wall-clock deadlines, float equality, swallowed
# exceptions, worker-side journal writes, mutable defaults, fork-unsafe
# module state, watch-loop/serve-blocking discipline, and the
# whole-program concurrency pass (REP012-REP015).  Exit 1 on any fresh
# finding or stale baseline entry.
lint:
	PYTHONPATH=src python -m repro lint src tests scripts

# Just the concurrency rules, with the JSON document (lock-order graph,
# thread roots) on stdout -- what the lint-concurrency CI job runs.
lint-concurrency:
	PYTHONPATH=src python -m repro lint src --select REP012,REP013,REP014,REP015 --json

# Tier-1 tests plus the static pass plus a fast fault-injection smoke:
# an evaluation run with an injected failure must complete, report the
# skip, and a killed run must resume from its journal with identical
# aggregates; a grid killed at --workers 1 must resume at --workers 2
# with journal bytes and aggregates equal to an uninterrupted run.
check: lint
	PYTHONPATH=src python -m pytest -x -q
	PYTHONPATH=src python scripts/fault_smoke.py

# Chaos suite: real worker deaths (os._exit), hangs past the cell
# deadline, SIGTERM mid-grid, follow-daemon kills at every journaled
# ingestion stage, and tenant-registry kills at every journaled serve
# stage (including mid copy-on-swap reload) -- asserting the journals
# stay valid and resumed outputs match a clean run byte for byte.
chaos:
	PYTHONPATH=src python -m pytest -q \
		tests/evaluation/test_supervisor.py \
		tests/evaluation/test_chaos.py \
		tests/evaluation/test_fault_tolerance.py \
		tests/ingest/test_chaos_ingest.py \
		tests/serve/test_chaos_serve.py

# Follow-mode smoke: a forked LSH daemon is hard-killed after its first
# fused batch and a bootstrapped LEAPME daemon after `featurized`; each
# is resumed and must land byte-identical to a cold rebuild; a poison
# source must quarantine with a reason.
serve-smoke:
	PYTHONPATH=src python scripts/serve_smoke.py

# HTTP service smoke: a real `repro serve --http` subprocess on a real
# socket -- probes go ready, a tenant is created and matched over HTTP,
# SIGTERM drains to exit 143, and a warm restart from the registry
# journal serves byte-identical match bodies.
serve-http-smoke:
	PYTHONPATH=src python scripts/serve_http_smoke.py

# The end-to-end benchmark's own tests (bench/): harness unit tests
# plus a small-scale smoke of every workload, each checking its output
# digests.  Tier-1 does not collect them (testpaths = tests).
bench-smoke:
	python -m pytest bench -q

# One traced grid_engine run: the end-to-end metrics plus the per-layer
# split (calls, busy and self seconds per traced function, parent vs
# worker) of the cameras grid.
bench-trace:
	python3 bench/run.py --workload grid_engine --trace 1

# One traced grid_table2 run: the training-layer counterpart of
# bench-trace.  The paper's 128-64-2 network under the 10+5+5 schedule
# makes LeapmeClassifier.fit most of the workers' busy time.
bench-train:
	python3 bench/run.py --workload grid_table2 --trace 1

# Evaluation-engine benchmark: the one grid engine in-process
# (workers=1) vs on a process pool, aggregates asserted equal.  Writes
# BENCH_grid.json.
bench:
	PYTHONPATH=src python scripts/bench_grid.py

# Featurization micro-benchmark: staged float32 pipeline vs the legacy
# monolithic float64 path, each in its own forked child (stage-level
# timings + peak RSS).  Merges a "features" section into BENCH_grid.json.
bench-features:
	PYTHONPATH=src python scripts/bench_grid.py --features

# Name-distance kernel micro-benchmark: scalar per-pair reference vs
# the batched kernel vs the warm memo vs a persistent-cache reload,
# with batched rows asserted bit-identical to the reference.  Merges a
# "kernel" section into BENCH_grid.json.
bench-kernel:
	PYTHONPATH=src python scripts/bench_grid.py --kernel

# Candidate-generation benchmark: the 9-config grid over the full
# cross product vs the same grid under the minhash blocking policy
# (paper network, so the F1 comparison is against converged
# classifiers).  Merges a "blocking" section into BENCH_grid.json with
# candidate counts, reduction ratio, pair recall and per-cell F1
# deltas.
bench-blocking:
	PYTHONPATH=src python scripts/bench_grid.py --blocking --network paper

bench-suite:
	pytest benchmarks/ --benchmark-only -s

bench-tiny:
	REPRO_BENCH_SCALE=tiny pytest benchmarks/ --benchmark-only -s

bench-paper:
	REPRO_BENCH_SCALE=paper REPRO_BENCH_REPS=25 pytest benchmarks/ --benchmark-only -s

examples:
	for script in examples/*.py; do echo "== $$script"; python $$script || exit 1; done

# Python line counts: src/ and tests/ on their own, then everything.
lines:
	@for dir in src tests "src tests benchmarks examples"; do \
		printf '%8d  %s\n' "$$(find $$dir -name '*.py' -exec cat {} + | wc -l)" "$$dir"; \
	done
