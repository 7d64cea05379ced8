"""The paper cells the three cell workloads run, and what is checked on them.

A *pattern* is one access pattern at one size (``fig3/noncontig/R``);
a *cell* is a pattern under one strategy.  Seed 0 runs the paper's
parameters (``benchmarks/bench_fig3/4/7/8``), except that noncontig runs
1024 rows instead of 4096 and BTIO writes 1.5 MB per instance instead of
6 MB: at full size one vanilla noncontig-R cell takes 13 s and one
vanilla BTIO cell 7 s, more than a whole run may spend.  Every other seed
shuffles the order the cells run in.  Sizes stay fixed: a cell's host
time is not proportional to its size (cluster set-up is a fixed cost), so
seed-drawn sizes would add their own spread to the host times that runs
with different seeds are compared on.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Any

from repro import (
    Btio,
    DualParConfig,
    ExperimentSpec,
    Hpio,
    IorMpiIo,
    JobSpec,
    MpiIoTest,
    Noncontig,
)
from repro.cluster import paper_spec
from repro.mpi.ops import IoOp
from repro.runner.parallel import SlimExperimentResult
from repro.service.catalog import canonical_json, result_to_dict
from repro.workloads.base import Workload

__all__ = [
    "CELL_WORKLOADS",
    "Cell",
    "cell_digest",
    "check_bytes",
    "fig7_check",
    "layer_counts",
    "paper_predicates",
    "sim_counts",
    "workload_cells",
]

MB = 1024 * 1024
NPROCS = 64
#: Fig 7: hpio joins this many simulated seconds in (bench_fig7).
JOIN_AT_S = 1.5


@dataclass(frozen=True)
class Cell:
    """One experiment cell: a pattern run under one strategy."""

    pattern: str
    strategy: str
    #: "R" or "W": which of read_wall_s / write_wall_s the cell counts in.
    op: str
    spec: ExperimentSpec

    @property
    def key(self) -> str:
        return f"{self.pattern}/{self.strategy}"


def _fig3(name: str, op: str, smoke: bool) -> Workload:
    if smoke:
        sizes = {"mpi-io-test": 2 * MB, "noncontig": 64, "ior-mpi-io": 2 * MB}
    else:
        sizes = {"mpi-io-test": 64 * MB, "noncontig": 1024, "ior-mpi-io": 128 * MB}
    n = sizes[name]
    if name == "mpi-io-test":
        return MpiIoTest(file_size=n, op=op)
    if name == "noncontig":
        return Noncontig(elmtcount=256, n_rows=n, op=op)
    return IorMpiIo(file_size=n, op=op)


def _btio_jobs(strategy: str, smoke: bool, nprocs: int) -> tuple:
    total = MB // 4 if smoke else 3 * MB // 2
    return tuple(
        JobSpec(
            f"btio{i}",
            nprocs,
            Btio(
                file_name=f"btio{i}.dat",
                total_bytes=total,
                n_steps=2,
                cell_scale=16384,
                op="W",
                compute_per_step=0.002,
                segments_per_call=64,
            ),
            strategy=strategy,
        )
        for i in range(3)
    )


def _fig7_spec(smoke: bool) -> ExperimentSpec:
    nprocs = 8 if smoke else 32
    mpi_bytes = (16 if smoke else 384) * MB
    regions = 512 if smoke else 8192
    return ExperimentSpec(
        (
            JobSpec(
                "mpi-io-test",
                nprocs,
                MpiIoTest(file_name="a.dat", file_size=mpi_bytes, barrier_every=0),
                strategy="dualpar",
            ),
            JobSpec(
                "hpio",
                nprocs,
                Hpio(file_name="b.dat", region_count=regions, region_bytes=16 * 1024),
                strategy="dualpar",
                delay_s=JOIN_AT_S,
            ),
        ),
        cluster_spec=paper_spec(
            n_compute_nodes=4 if smoke else 16,
            trace_disks=True,
            locality_interval_s=0.25,
        ),
        dualpar_config=DualParConfig(emc_interval_s=0.25, metric_window_s=1.0),
        timeline_window_s=0.5,
        label="fig7",
    )


#: The Fig 3 patterns every cell workload runs.  noncontig-W is left out
#: of vanilla-cells: it costs as much as the rest of the workload on the
#: same pfs/net path and exercises no other layer.
_FIG3 = [
    "fig3/mpi-io-test/R", "fig3/mpi-io-test/W", "fig3/noncontig/R",
    "fig3/ior-mpi-io/R", "fig3/ior-mpi-io/W",
]
#: Workload -> (pattern, strategy) pairs, in seed-0 order.
CELL_WORKLOADS: dict[str, list[tuple[str, str]]] = {
    "vanilla-cells": [(p, "vanilla") for p in _FIG3] + [("fig4/btio/W", "vanilla")],
    "collective-cells": [(p, "collective") for p in _FIG3]
    + [("fig3/noncontig/W", "collective"), ("fig4/btio/W", "collective")],
    "dualpar-cells": [(p, "dualpar-forced") for p in _FIG3]
    + [
        ("fig3/noncontig/W", "dualpar-forced"),
        ("fig4/btio/W", "dualpar-forced"),
        ("fig7/adaptive/R", "dualpar"),
        ("fig8/btio-64KB/W", "dualpar-forced"),
    ],
}

def _spec(pattern: str, strategy: str, smoke: bool) -> ExperimentSpec:
    cluster = paper_spec(n_compute_nodes=4) if smoke else paper_spec()
    nprocs = 8 if smoke else NPROCS
    fig, name, op = pattern.split("/")
    if fig == "fig3":
        jobs = (JobSpec(name, nprocs, _fig3(name, op, smoke), strategy=strategy),)
        return ExperimentSpec(jobs, cluster_spec=cluster, label=pattern)
    if fig == "fig4":
        return ExperimentSpec(
            _btio_jobs(strategy, smoke, nprocs), cluster_spec=cluster, label=pattern
        )
    if fig == "fig7":
        return _fig7_spec(smoke)
    # fig8: one BTIO under DualPar with a 64 KB per-process cache quota.
    workload = Btio(
        total_bytes=MB if smoke else 8 * MB,
        n_steps=2,
        cell_scale=16384,
        op="W",
        compute_per_step=0.002,
        segments_per_call=64,
    )
    return ExperimentSpec(
        (JobSpec("btio", nprocs, workload, strategy=strategy),),
        cluster_spec=cluster,
        dualpar_config=DualParConfig(quota_bytes=64 * 1024),
        label=pattern,
    )


def workload_cells(workload: str, seed: int, smoke: bool = False) -> list[Cell]:
    """The cells of one cell workload for ``seed``, in run order."""
    cells = [
        Cell(pattern, strategy, pattern[-1], _spec(pattern, strategy, smoke))
        for pattern, strategy in CELL_WORKLOADS[workload]
    ]
    if seed != 0:
        random.Random(f"{seed}/{workload}").shuffle(cells)
    return cells


# -- outputs ---------------------------------------------------------------


def cell_digest(result: Any) -> str:
    """sha256 of the canonical JSON of a full ExperimentResult."""
    payload = canonical_json(result_to_dict(SlimExperimentResult.from_full(result)))
    return hashlib.sha256(payload.encode()).hexdigest()


def check_bytes(spec: ExperimentSpec, result: Any) -> list[str]:
    """Mismatches between the bytes each job moved and the bytes its
    workload asked for (empty when every job matches)."""
    problems = []
    for job_spec, job in zip(spec.specs, result.jobs):
        want = {"R": 0, "W": 0}
        for rank in range(job_spec.nprocs):
            for op in job_spec.workload.ops(rank, job_spec.nprocs):
                if isinstance(op, IoOp):
                    want[op.op] += op.total_bytes
        got = {"R": job.bytes_read, "W": job.bytes_written}
        if got != want:
            problems.append(f"{job.name}: moved {got}, requested {want}")
    return problems


def sim_counts(result: Any) -> dict[str, float]:
    """Additive simulated counts of one cell (exact; no host time)."""
    servers = result.cluster.data_servers
    blk = [ds.block_layer.stats for ds in servers]
    drives = [ds.device.stats for ds in servers]
    cache = result.runtime.global_cache
    return {
        "makespan_s": result.makespan_s,
        "io_time_s": result.total_io_time_s,
        "job_bytes": sum(j.total_bytes for j in result.jobs),
        "server_requests": sum(ds.n_requests for ds in servers),
        "bytes_served": sum(ds.bytes_served for ds in servers),
        "units": sum(s.n_units_served for s in blk),
        "depth_sum": sum(sum(s.depth_samples) for s in blk),
        "depth_n": sum(len(s.depth_samples) for s in blk),
        "unit_sectors": sum(s.mean_unit_sectors * s.n_units_served for s in blk),
        "disk_requests": sum(d.n_requests for d in drives),
        "seek_sectors": sum(d.total_seek_sectors for d in drives),
        "busy_s": sum(d.total_busy_s for d in drives),
        "cache_gets": cache.n_gets,
        "cache_hits": cache.n_hits,
        "cache_evictions": cache.n_evictions,
        "transitions": len(result.dualpar.transitions) if result.dualpar else 0,
    }


def layer_counts(totals: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics derived from summed :func:`sim_counts`."""

    def ratio(a: str, b: str) -> float:
        return totals[a] / totals[b] if totals.get(b) else 0.0

    return {
        "sim.makespan_s": totals.get("makespan_s", 0.0),
        "mpi.io_time_s": totals.get("io_time_s", 0.0),
        "pfs.server_requests": totals.get("server_requests", 0),
        "pfs.bytes_served": totals.get("bytes_served", 0),
        "pfs.useful_ratio": ratio("job_bytes", "bytes_served"),
        "iosched.units": totals.get("units", 0),
        "iosched.mean_depth": ratio("depth_sum", "depth_n"),
        "iosched.unit_kb": ratio("unit_sectors", "units") / 2,
        "disk.requests": totals.get("disk_requests", 0),
        "disk.seek_sectors_per_req": ratio("seek_sectors", "disk_requests"),
        "disk.busy_s": totals.get("busy_s", 0.0),
        "cache.gets": totals.get("cache_gets", 0),
        "cache.hit_ratio": ratio("cache_hits", "cache_gets"),
        "cache.evictions": totals.get("cache_evictions", 0),
        "core.transitions": totals.get("transitions", 0),
    }


# -- paper-shape predicates ----------------------------------------------


def fig7_check(result: Any) -> str | None:
    """Fig 7: EMC switches only after hpio joins, and both jobs go
    data-driven.  Returns a failure description, or None."""
    transitions = result.dualpar.transitions if result.dualpar else []
    early = [t for t in transitions if t[0] < JOIN_AT_S]
    switched = {name for _, name, mode in transitions if mode == "datadriven"}
    if early:
        return f"switched before hpio joined: {early}"
    if switched != {"mpi-io-test", "hpio"}:
        return f"data-driven jobs {sorted(switched)} != both"
    return None


def paper_predicates(tput: dict[tuple[str, str], float]) -> list[tuple[str, bool | None, str]]:
    """Cross-workload paper-shape checks over system throughput (MB/s)
    keyed by (pattern, strategy).  Each entry is (name, verdict, detail);
    verdict None means the workloads run did not cover the check."""
    out: list[tuple[str, bool | None, str]] = []

    def have(*keys: tuple[str, str]) -> bool:
        return all(k in tput for k in keys)

    fig3 = sorted({p for p, _ in tput if p.startswith("fig3/")})
    pairs = [p for p in fig3 if have((p, "vanilla"), (p, "dualpar-forced"))]
    worse = [p for p in pairs if tput[(p, "dualpar-forced")] <= tput[(p, "vanilla")]]
    out.append(
        ("DualPar beats vanilla on every Fig 3 pattern",
         (not worse) if pairs else None,
         f"{len(pairs)} patterns compared; losing: {worse}")
    )
    ior = [p for p in ("fig3/ior-mpi-io/R", "fig3/ior-mpi-io/W")
           if have((p, "vanilla"), (p, "collective"))]
    ratios = {p: tput[(p, "collective")] / tput[(p, "vanilla")] for p in ior}
    out.append(
        ("ior collective below 1.35x vanilla",
         all(r < 1.35 for r in ratios.values()) if ior else None,
         ", ".join(f"{p}: {r:.2f}x" for p, r in ratios.items()))
    )
    nc = "fig3/noncontig/R"
    if have((nc, "vanilla"), (nc, "collective"), (nc, "dualpar-forced")):
        v, c, d = (tput[(nc, s)] for s in ("vanilla", "collective", "dualpar-forced"))
        out.append(("noncontig-R: vanilla < collective < DualPar", v < c < d,
                    f"{v:.1f} < {c:.1f} < {d:.1f} MB/s"))
    else:
        out.append(("noncontig-R: vanilla < collective < DualPar", None, ""))
    bt = "fig4/btio/W"
    for strategy in ("collective", "dualpar-forced"):
        name = f"BTIO P=64: {strategy} above 2x vanilla"
        if have((bt, "vanilla"), (bt, strategy)):
            r = tput[(bt, strategy)] / tput[(bt, "vanilla")]
            out.append((name, r > 2, f"{r:.1f}x"))
        else:
            out.append((name, None, ""))
    return out
