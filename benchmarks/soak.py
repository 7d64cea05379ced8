"""Randomized-chaos soak cell: guard + watchdog + sanitizer, seeded.

Runs a sequence of guarded experiment cells, each with a *randomized*
fault schedule drawn from a pinned seed (``--seed``), the runtime
SimSanitizer armed, and the full safety governor attached (budgets,
benefit governor, circuit breaker, stall watchdog).  The run **fails**
when any cell produces

- a watchdog **deadlock** report (every foreground process stalled), or
- a sanitizer finding (raised as ``SanitizerError``), or
- a cell that does not complete within its simulated-time limit.

Watchdog ``stall`` reports are informational: long fault windows
legitimately block processes for a while.  To keep deadlock detection
meaningful the generated fault windows are always shorter than the
watchdog's ``stall_window_s`` (see docs/degradation.md, "tuning the
watchdog").

Everything is deterministic per seed; the wall-clock budget only bounds
how many of the planned cells actually run in CI.  Artifacts (guard
summaries, transitions, metrics snapshots) land in ``--out-dir``.

Usage::

    PYTHONPATH=src python benchmarks/soak.py --seed 0 --cells 6 \
        --budget-s 240 --out-dir soak-out
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import random
import sys
import time

os.environ.setdefault("REPRO_SANITIZE", "1")

from repro import JobSpec, run_experiment  # noqa: E402
from repro.cluster import paper_spec  # noqa: E402
from repro.core.config import DualParConfig  # noqa: E402
from repro.faults import FaultEvent, FaultPlan, RetryPolicy  # noqa: E402
from repro.guard import GuardConfig  # noqa: E402
from repro.obs import Observability, write_metrics  # noqa: E402
from repro.workloads import Demo, DependentReads, MpiIoTest  # noqa: E402

#: Watchdog window for the soak; every generated fault window stays
#: shorter, so only a genuine deadlock can ever report as one.
STALL_WINDOW_S = 8.0
MAX_FAULT_WINDOW_S = 3.0
LIMIT_S = 600.0

WORKLOADS = [
    ("mpi-io-test", lambda mb: MpiIoTest(file_size=mb << 20), "dualpar"),
    ("demo", lambda mb: Demo(file_size=mb << 20, nprocs_hint=8), "dualpar-forced"),
    ("dependent", lambda mb: DependentReads(file_size=mb << 20), "dualpar-forced"),
]


def random_plan(rng: random.Random, n_servers: int, n_compute: int) -> FaultPlan:
    """A small randomized fault schedule with soak-safe windows.

    A drawn event that overlaps an earlier one of its kind on its target
    is dropped after the draw, so the RNG stream does not depend on it.
    """
    drawn = []
    for _ in range(rng.randint(1, 4)):
        at = rng.uniform(0.05, 6.0)
        window = rng.uniform(0.5, MAX_FAULT_WINDOW_S)
        kind = rng.choice(
            ["disk_failslow", "server_crash", "net_degrade", "cache_evict"]
        )
        if kind == "disk_failslow":
            drawn.append(
                FaultEvent(
                    kind=kind,
                    at_s=at,
                    until_s=at + window,
                    target=rng.randrange(n_servers),
                    transfer_factor=rng.uniform(2.0, 8.0),
                    extra_seek_s=rng.uniform(0.0, 0.003),
                )
            )
        elif kind == "server_crash":
            drawn.append(
                FaultEvent(
                    kind=kind,
                    at_s=at,
                    until_s=at + window,
                    target=rng.randrange(n_servers),
                )
            )
        elif kind == "net_degrade":
            drawn.append(
                FaultEvent(
                    kind=kind,
                    at_s=at,
                    until_s=at + window,
                    extra_latency_s=rng.uniform(1e-4, 2e-3),
                    jitter_s=rng.uniform(0.0, 1e-3),
                )
            )
        else:  # cache_evict
            drawn.append(
                FaultEvent(
                    kind=kind,
                    at_s=at,
                    until_s=at + window,
                    target=rng.randrange(n_compute),
                )
            )
    events: list[FaultEvent] = []
    for ev in drawn:
        if not any(kept.overlaps(ev) for kept in events):
            events.append(ev)
    events.sort(key=lambda ev: ev.at_s)
    return FaultPlan(
        seed=rng.randrange(1 << 30),
        events=tuple(events),
        retry=RetryPolicy(backoff_jitter="full"),
    )


def run_cell(index: int, rng: random.Random, out_dir: pathlib.Path) -> list[str]:
    """Run one soak cell; return a list of failure descriptions."""
    name, build, strategy = WORKLOADS[index % len(WORKLOADS)]
    size_mb = rng.choice([8, 16, 32])
    nprocs = rng.choice([4, 8])
    spec = paper_spec(n_compute_nodes=8, n_data_servers=4)
    plan = random_plan(rng, n_servers=4, n_compute=8)
    observe = Observability()
    result = run_experiment(
        [JobSpec(name, nprocs, build(size_mb), strategy=strategy)],
        cluster_spec=spec,
        dualpar_config=DualParConfig(quota_bytes=256 * 1024),
        observe=observe,
        fault_plan=plan,
        guard=GuardConfig(stall_window_s=STALL_WINDOW_S),
        limit_s=LIMIT_S,
    )
    failures = []
    job = result.mpi_jobs[0]
    if not job.done.triggered:
        failures.append(f"cell {index}: job did not finish within {LIMIT_S}s sim time")
    watchdog = result.guard.watchdog
    for report in watchdog.deadlocks:
        failures.append(f"cell {index}: watchdog deadlock\n{report.render()}")
    artifact = {
        "cell": index,
        "workload": name,
        "strategy": strategy,
        "nprocs": nprocs,
        "size_mb": size_mb,
        "fault_plan": plan.to_dict(),
        "makespan_s": result.makespan_s,
        "guard": result.guard.summary(),
        "guard_transitions": result.guard.transitions,
        "watchdog_reports": [
            {"time": r.time, "kind": r.kind, "table": r.render()}
            for r in watchdog.reports
        ],
    }
    (out_dir / f"cell{index}.json").write_text(json.dumps(artifact, indent=2) + "\n")
    write_metrics(out_dir / f"cell{index}-metrics.json", result.metrics)
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="randomized-chaos soak run")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--cells", type=int, default=6)
    parser.add_argument(
        "--budget-s",
        type=float,
        default=240.0,
        help="wall-clock budget; stops launching new cells once exceeded",
    )
    parser.add_argument("--out-dir", default="soak-out")
    args = parser.parse_args(argv)

    out_dir = pathlib.Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(args.seed)
    started = time.monotonic()
    failures: list[str] = []
    ran = 0
    for i in range(args.cells):
        if time.monotonic() - started > args.budget_s:
            print(f"soak: wall budget reached after {ran} cells; stopping early")
            break
        cell_failures = run_cell(i, rng, out_dir)
        failures.extend(cell_failures)
        ran += 1
        status = "FAIL" if cell_failures else "ok"
        print(f"soak: cell {i} {status} ({time.monotonic() - started:.1f}s elapsed)")
    summary = {
        "seed": args.seed,
        "cells_planned": args.cells,
        "cells_ran": ran,
        "failures": failures,
    }
    (out_dir / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")
    if failures:
        print("\n".join(failures), file=sys.stderr)
        print(f"soak: {len(failures)} failure(s) across {ran} cells", file=sys.stderr)
        return 1
    print(f"soak: {ran} cells clean (seed {args.seed})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
