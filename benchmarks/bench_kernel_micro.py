"""Kernel microbenchmark: raw event-loop throughput and cell wall time.

Tracks the perf-regression surface of the kernel fast path (Timeout pool,
cohort dispatch loop, pre-bound process resume, C accelerator):
events/sec through the bare simulator on the default kernel and on the
pure-Python heap, plus the wall time of one small ``run_experiment``
cell.  Results land in paper-style text *and* a
machine-readable ``benchmarks/results/BENCH_kernel.json`` so CI and
later sessions can diff them.

Runnable standalone (no pytest) for the CI smoke check::

    PYTHONPATH=src python benchmarks/bench_kernel_micro.py
"""

from __future__ import annotations

import json
import pathlib
import time

from repro import JobSpec, MpiIoTest, run_experiment
from repro.cluster import paper_spec
from repro.sim import HeapQueue
from repro.sim.core import Simulator

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: Seed-kernel numbers measured on this container at commit c8e7675
#: (median of repeated runs) -- the "pre-change kernel" reference the
#: speedup figures in BENCH_kernel.json are computed against.
SEED_BASELINE = {
    "events_per_sec": 635_000,
    "vanilla_cell_s": 0.0856,
}


def _timeout_loop(sim, n):
    timeout = sim.timeout
    for _ in range(n):
        yield timeout(1.0)


def _pingpong(sim, store, n, rank):
    for i in range(n):
        yield store.put((rank, i))
        yield store.get()


def measure_events_per_sec(
    n_procs: int = 16, n_iters: int = 20_000, repeats: int = 3, make_queue=None
) -> float:
    """Best-of-N events/sec through the bare kernel (yield-Timeout loop)."""
    best = 0.0
    for _ in range(repeats):
        sim = Simulator() if make_queue is None else Simulator(queue=make_queue())
        for _p in range(n_procs):
            sim.process(_timeout_loop(sim, n_iters))
        t0 = time.perf_counter()
        sim.run()
        rate = n_procs * n_iters / (time.perf_counter() - t0)
        best = max(best, rate)
    return best


def measure_queue_ab(repeats: int = 3) -> dict:
    """Default-kernel-vs-heap A/B on the same workload.

    ``default`` is what ``Simulator()`` picks (the C band heap and
    dispatch loop when the in-tree extension built); ``heap`` passes
    :class:`HeapQueue` instances, which run the pure-Python loop -- the
    kernel every simulator gets with ``REPRO_SIM_ACCEL=0``.
    """
    return {
        "heap": measure_events_per_sec(repeats=repeats, make_queue=HeapQueue),
        "default": measure_events_per_sec(repeats=repeats),
    }


def measure_mixed_events_per_sec(n_procs: int = 16, n_iters: int = 5_000) -> float:
    """Events/sec with Store put/get traffic mixed in (succeed() path)."""
    from repro.sim.resources import Store

    sim = Simulator()
    store = Store(sim)
    for rank in range(n_procs):
        sim.process(_pingpong(sim, store, n_iters, rank))
    t0 = time.perf_counter()
    sim.run()
    # Two events per iteration per process (put + get).
    return 2 * n_procs * n_iters / (time.perf_counter() - t0)


def measure_cell_seconds(repeats: int = 3) -> float:
    """Best-of-N wall time of one small 16-rank vanilla experiment cell."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        run_experiment(
            [JobSpec("m", 16, MpiIoTest(file_size=16 * 1024 * 1024), strategy="vanilla")],
            cluster_spec=paper_spec(n_compute_nodes=8),
        )
        best = min(best, time.perf_counter() - t0)
    return best


def collect() -> dict:
    pooled = measure_events_per_sec()
    mixed = measure_mixed_events_per_sec()
    cell_s = measure_cell_seconds()
    queue_ab = measure_queue_ab()
    return {
        "events_per_sec": pooled,
        "events_per_sec_mixed": mixed,
        "queue_ab": queue_ab,
        "default_vs_heap": queue_ab["default"] / queue_ab["heap"],
        "vanilla_cell_s": cell_s,
        "cells_per_sec": 1.0 / cell_s,
        "seed_baseline": SEED_BASELINE,
        "speedup_vs_seed": pooled / SEED_BASELINE["events_per_sec"],
        "cell_speedup_vs_seed": SEED_BASELINE["vanilla_cell_s"] / cell_s,
    }


def write_bench_json(payload: dict) -> pathlib.Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    out = RESULTS_DIR / "BENCH_kernel.json"
    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return out


def _rows(data: dict) -> list[list]:
    ab = data["queue_ab"]
    return [
        ["events/sec", f"{data['events_per_sec']:,.0f}"],
        ["events/sec (mixed store traffic)", f"{data['events_per_sec_mixed']:,.0f}"],
        ["events/sec (default kernel)", f"{ab['default']:,.0f}"],
        ["events/sec (pure-Python heap)", f"{ab['heap']:,.0f}"],
        ["default vs heap", f"{data['default_vs_heap']:.2f}x"],
        ["16-rank vanilla cell (s)", f"{data['vanilla_cell_s']:.4f}"],
        ["speedup vs seed kernel", f"{data['speedup_vs_seed']:.2f}x"],
        ["cell speedup vs seed kernel", f"{data['cell_speedup_vs_seed']:.2f}x"],
    ]


def test_kernel_micro(benchmark, report):
    from conftest import run_once
    from repro import format_table

    data = run_once(benchmark, collect)
    write_bench_json(data)
    report(
        "kernel_micro",
        format_table(
            ["metric", "value"],
            _rows(data),
            title="Kernel microbenchmark (see BENCH_kernel.json)",
        ),
    )
    # Regression guards, kept loose enough for noisy shared hardware:
    # the kernel must still push a healthy event rate.
    assert data["events_per_sec"] > 100_000
    assert data["queue_ab"]["heap"] > 100_000
    # The default kernel must never lose badly to the reference heap.
    assert data["default_vs_heap"] > 0.8


def main() -> int:
    data = collect()
    out = write_bench_json(data)
    for label, value in _rows(data):
        print(f"{label:>38}: {value}")
    print(f"wrote {out}")
    ok = data["events_per_sec"] > 100_000
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
