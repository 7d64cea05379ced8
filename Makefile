PYTHON ?= python
NPROC ?= $(shell nproc 2>/dev/null || echo 1)

.PHONY: install test test-fast test-py test-pdes coverage lint lint-fast own own-map sanitize chaos soak serve-smoke bench bench-fast bench-kernel bench-gate bench-pdes pdes-gate ci-local examples results clean

install:
	$(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

# Tier-1 tests fanned out with pytest-xdist when available (dev extra);
# falls back to the serial run otherwise.
test-fast:
	@$(PYTHON) -c "import xdist" 2>/dev/null \
		&& $(PYTHON) -m pytest tests/ -n $(NPROC) -q \
		|| { echo "pytest-xdist not installed; running serially"; \
		     $(PYTHON) -m pytest tests/ -q; }

# Tier-1 suite on the pure-Python kernel: C accelerator off, so every
# simulator runs the binary heap and the Python dispatch loop (the CI
# matrix runs the same leg; the default is the C kernel).
test-py:
	REPRO_SIM_ACCEL=0 $(PYTHON) -m pytest tests/ -q

# Determinism lint (simlint, stdlib-only, always runs) plus ruff and mypy
# when the dev extra is installed; absent tools are skipped, not failures.
lint:
	PYTHONPATH=src $(PYTHON) -m repro lint src
	@$(PYTHON) -c "import ruff" 2>/dev/null \
		&& $(PYTHON) -m ruff check src tests benchmarks \
		|| echo "ruff not installed; skipping"
	@$(PYTHON) -c "import mypy" 2>/dev/null \
		&& $(PYTHON) -m mypy \
		|| echo "mypy not installed; skipping"

# Lint only the files changed vs the git merge-base (full tree outside
# a repository) -- the pre-push inner loop.
lint-fast:
	PYTHONPATH=src $(PYTHON) -m repro lint --changed

# simown state-ownership gate: fails on unannotated shared-hazard
# findings (see docs/static_analysis.md).
own:
	PYTHONPATH=src $(PYTHON) -m repro ownership --check

own-map:
	PYTHONPATH=src $(PYTHON) -m repro ownership --out docs/partition_map.json

# Tier-1 tests under coverage (pytest-cov, dev extra); CI fails below
# 80% line coverage of the repro package.  Skipped when uninstalled.
coverage:
	@$(PYTHON) -c "import pytest_cov" 2>/dev/null \
		&& $(PYTHON) -m pytest tests/ -q --cov=repro --cov-report=term \
		   --cov-report=xml --cov-fail-under=80 \
		|| echo "pytest-cov not installed; skipping"

# Tier-1 determinism suite with the runtime sim-sanitizer armed.
sanitize:
	REPRO_SANITIZE=1 PYTHONPATH=src $(PYTHON) -m pytest tests/test_determinism.py tests/test_sanitizer.py -q

# Fault-injection unit + chaos/property suites with a pinned Hypothesis
# seed (same invocation as the CI chaos job).
chaos:
	PYTHONPATH=src $(PYTHON) -m pytest -q --hypothesis-seed=0 \
		tests/test_faults.py tests/test_chaos_scenarios.py tests/test_sanitizer.py

# Long randomized-chaos soak at a pinned seed: guard + watchdog +
# sanitizer armed; fails on watchdog deadlock or sanitizer finding.
soak:
	PYTHONPATH=src $(PYTHON) benchmarks/soak.py --seed 0 --cells 12 \
		--budget-s 240 --out-dir soak-out

# Service smoke: real `repro serve` subprocess, 8 submissions (2 dups)
# from 2 client processes, 6 catalog entries + dedup hits + bit-identity
# vs direct runs, SIGTERM drain (same invocation as the CI service job).
serve-smoke:
	PYTHONPATH=src $(PYTHON) benchmarks/serve_smoke.py \
		--out-dir serve-smoke-out

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# Benchmark grids with process fan-out across all CPUs and the on-disk
# result cache enabled: a warm re-run only recomputes changed cells.
# The kernel-micro table includes the default-kernel-vs-heap A/B rows.
bench-fast:
	BENCH_JOBS=$(NPROC) $(PYTHON) -m pytest benchmarks/ --benchmark-only

# Standalone kernel microbench; prints the default kernel and the
# pure-Python heap and rewrites benchmarks/results/BENCH_kernel.json.
bench-kernel:
	$(PYTHON) benchmarks/bench_kernel_micro.py

# Kernel-bench regression gate: fails when events/sec drops more than
# 25% below benchmarks/results/BENCH_kernel.baseline.json.
bench-gate:
	$(PYTHON) benchmarks/check_regression.py

# PDES unit/property/determinism suite (conservative parallel DES).
test-pdes:
	PYTHONPATH=src $(PYTHON) -m pytest tests/test_pdes.py -q

# PDES speedup bench: sharded cell at 1/2/4/8 workers vs serial;
# writes benchmarks/out/BENCH_pdes.json (PROFILE=ci for the small cell).
PROFILE ?= full
bench-pdes:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_pdes.py --profile $(PROFILE)

# PDES regression gate: runs the ci-profile bench and fails when the
# serial rate or any worker leg's speedup drops >25% vs
# benchmarks/results/BENCH_pdes.baseline.json.
pdes-gate:
	PYTHONPATH=src $(PYTHON) benchmarks/check_pdes.py

# Replay the CI gates locally: lint legs, tier-1 tests, the determinism
# jobs' suites, the pdes worker-count matrix, and both bench gates.
ci-local: lint own
	PYTHONPATH=src $(PYTHON) -m pytest tests/ -q
	PYTHONPATH=src $(PYTHON) -m pytest -q tests/test_determinism.py tests/test_parallel_runner.py
	REPRO_SANITIZE=1 PYTHONPATH=src $(PYTHON) -m pytest -q tests/test_determinism.py tests/test_sanitizer.py
	REPRO_SANITIZE_OWNERSHIP=1 PYTHONPATH=src $(PYTHON) -m pytest -q tests/test_determinism.py tests/test_ownership.py
	for w in 1 2 4 8; do \
		REPRO_SIM_WORKERS=$$w PYTHONPATH=src $(PYTHON) -m repro pdes --verify || exit 1; \
	done
	REPRO_SANITIZE_OWNERSHIP=1 REPRO_SIM_WORKERS=2 PYTHONPATH=src $(PYTHON) -m repro pdes --verify
	$(PYTHON) benchmarks/check_regression.py
	PYTHONPATH=src $(PYTHON) benchmarks/check_pdes.py

# Regenerate the archived outputs referenced by EXPERIMENTS.md.
results:
	$(PYTHON) -m pytest tests/ 2>&1 | tee test_output.txt
	$(PYTHON) -m pytest benchmarks/ --benchmark-only 2>&1 | tee bench_output.txt

examples:
	for f in examples/*.py; do echo "== $$f"; $(PYTHON) $$f; done

clean:
	rm -rf .pytest_cache .benchmarks .bench_cache soak-out serve-smoke-out \
		.service_catalog src/repro.egg-info
	find . -name __pycache__ -type d -exec rm -rf {} +
