PYTHON ?= python
NPROC ?= $(shell nproc 2>/dev/null || echo 1)

.PHONY: install test test-fast test-py coverage lint lint-fast sanitize chaos digests proc-counts gc-audit soak serve-smoke bench bench-kernel bench-gate ci-local examples results clean

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

# Seed-0 digests of every benchmark-suite cell, smoke and full size, of
# every smoke cell plus two striped cells under each examples/faultplans
# plan, and of every figure, table and ablation cell of
# benchmarks/paper_cells.py at smoke scale (about 30 s), against
# benchmarks/results/cells.digests.json: any change to a simulated
# result fails.  The file is pinned on one Python major.minor
# (recorded in it); other interpreters skip the check and say so.  A
# deliberate model change re-pins the file with
# `$(PYTHON) benchmarks/cell_digests.py --write`.
digests:
	PYTHONPATH=src $(PYTHON) benchmarks/cell_digests.py

# Simulation processes built per seed-0 pass of each cell workload,
# grouped by name: the per-event overhead ROADMAP targets are written in.
proc-counts:
	PYTHONPATH=src $(PYTHON) benchmarks/process_counts.py

# The cyclic collector's cost per seed-0 cell of each cell workload
# (collections per generation, seconds) and the objects each cell leaves
# unreachable, by type; fails when a cell leaves more than the bound in
# benchmarks/gc_audit.py (about 40 s).
gc-audit:
	PYTHONPATH=src $(PYTHON) benchmarks/gc_audit.py

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

# Benchmark grids: cells fan out across all CPUs and land in the result
# catalog (.service_catalog/), so a warm re-run only recomputes changed
# cells.  The kernel-micro table includes the default-kernel-vs-heap A/B rows.
bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# Standalone kernel microbench; prints the default kernel and the
# pure-Python heap and rewrites benchmarks/results/BENCH_kernel.json.
bench-kernel:
	$(PYTHON) benchmarks/bench_kernel_micro.py

# Kernel-bench regression gate: fails when events/sec drops more than
# 25% below benchmarks/results/BENCH_kernel.baseline.json.
bench-gate:
	$(PYTHON) benchmarks/check_regression.py

# Replay the CI gates locally: lint legs, the examples, the C
# accelerator's -Wall build and self-test, tier-1 tests on both kernels,
# the chaos job's suites, the determinism jobs' suites and cell digests,
# the cyclic-garbage audit, the observability job's C-vs-pure-Python
# `repro run --metrics` snapshot comparison, the service job's
# serve-smoke, and the kernel bench gate.  A _cq.c that fails to build
# or to self-test would otherwise leave every later step on the
# pure-Python kernel without a word.
ci-local: lint
	$(MAKE) examples
	cc -Wall -Werror -fsyntax-only \
		-I"$$($(PYTHON) -c 'import sysconfig; print(sysconfig.get_path("include"))')" \
		src/repro/sim/_cq.c
	PYTHONPATH=src $(PYTHON) -c "import repro.sim.core as core; \
		assert core._CQ is not None, 'C accelerator failed to build or self-test'"
	PYTHONPATH=src $(PYTHON) -m pytest tests/ -q
	REPRO_SIM_ACCEL=0 PYTHONPATH=src $(PYTHON) -m pytest tests/ -q
	$(MAKE) chaos
	PYTHONPATH=src $(PYTHON) -m pytest -q tests/test_determinism.py tests/test_parallel_runner.py
	REPRO_SANITIZE=1 PYTHONPATH=src $(PYTHON) -m pytest -q tests/test_determinism.py tests/test_sanitizer.py
	$(MAKE) digests
	REPRO_SIM_ACCEL=0 $(MAKE) digests
	REPRO_SANITIZE=1 $(MAKE) digests
	$(MAKE) gc-audit
	mkdir -p benchmarks/out
	for accel in 1 0; do \
		REPRO_SIM_ACCEL=$$accel PYTHONPATH=src $(PYTHON) -m repro run \
			--workload mpi-io-test --nprocs 16 --size-mb 16 \
			--strategy dualpar-forced \
			--faults examples/faultplans/crash_recover.json --guard \
			--metrics benchmarks/out/obs-metrics-accel$$accel.json >/dev/null || exit 1; \
	done
	cmp benchmarks/out/obs-metrics-accel1.json benchmarks/out/obs-metrics-accel0.json
	$(MAKE) serve-smoke
	PYTHONPATH=src $(PYTHON) benchmarks/check_regression.py

# Regenerate the archived outputs referenced by EXPERIMENTS.md.
results:
	$(PYTHON) -m pytest tests/ 2>&1 | tee test_output.txt
	$(PYTHON) -m pytest benchmarks/ --benchmark-only 2>&1 | tee bench_output.txt

# Run every example script; the first one that fails stops the target.
examples:
	@set -e; for f in examples/*.py; do \
		echo "== $$f"; PYTHONPATH=src $(PYTHON) $$f; done

clean:
	rm -rf .pytest_cache .benchmarks soak-out serve-smoke-out \
		.service_catalog src/repro.egg-info
	find . -name __pycache__ -type d -exec rm -rf {} +
