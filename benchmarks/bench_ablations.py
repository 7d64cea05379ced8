"""Ablations over the design choices DESIGN.md calls out.

Not a paper figure -- these benches isolate the mechanisms DualPar's
gains are attributed to:

1. kernel I/O scheduler choice (CFQ / deadline / noop / anticipatory)
   under vanilla vs DualPar -- DualPar's pre-sorted batches should make
   it far less sensitive to the elevator than vanilla is;
2. T_improvement sensitivity (the paper: "system performance is not
   sensitive to this threshold");
3. CRM hole filling on/off on a holey workload;
4. list I/O on/off for batched issue;
5. ghost computation retained (DualPar) vs stripped (Strategy-2 style) --
   the prediction-fidelity/overhead trade the paper discusses.
"""

from __future__ import annotations

import pytest

from conftest import run_once
from repro import (
    Demo,
    DualParConfig,
    ExperimentSpec,
    Hpio,
    JobSpec,
    MpiIoTest,
    Noncontig,
    format_table,
    run_experiment,
    run_experiments,
)
from repro.cluster import paper_spec

NPROCS = 32


def test_ablation_io_scheduler(benchmark, report):
    def run():
        scheds = ("cfq", "deadline", "noop", "anticipatory")
        strategies = ("vanilla", "dualpar-forced")
        cells = [
            ExperimentSpec(
                [JobSpec("m", NPROCS,
                         MpiIoTest(file_size=48 * 1024 * 1024, barrier_every=4),
                         strategy=strategy)],
                cluster_spec=paper_spec(io_scheduler=sched),
                label=f"{sched}/{strategy}",
            )
            for sched in scheds
            for strategy in strategies
        ]
        results = run_experiments(cells)
        rows = []
        for i, sched in enumerate(scheds):
            row = [sched]
            for si in range(len(strategies)):
                row.append(results[i * len(strategies) + si].jobs[0].throughput_mb_s)
            rows.append(row)
        return rows

    rows = run_once(benchmark, run)
    report(
        "ablation_io_scheduler",
        format_table(
            ["elevator", "vanilla MB/s", "DualPar MB/s"],
            rows,
            title="Ablation: kernel I/O scheduler under each execution mode",
        ),
    )
    # DualPar's batched pre-sorted issue makes it much less elevator-
    # sensitive than vanilla: its min/max spread is tighter.
    van = [r[1] for r in rows]
    dp = [r[2] for r in rows]
    assert (max(dp) / min(dp)) < (max(van) / min(van)) * 1.5
    # And DualPar beats vanilla under every elevator.
    for sched, v, d in rows:
        assert d > v, f"{sched}: DualPar should win regardless of elevator"


def test_ablation_t_improvement(benchmark, report):
    """Mode switching lands the same way across a wide threshold range."""

    def scenario(t_improvement):
        spec = paper_spec(n_compute_nodes=16, locality_interval_s=0.25)
        cfg = DualParConfig(
            emc_interval_s=0.25, metric_window_s=1.0, t_improvement=t_improvement
        )
        specs = [
            JobSpec("seq", NPROCS,
                    MpiIoTest(file_name="a.dat", file_size=192 * 1024 * 1024,
                              barrier_every=0),
                    strategy="dualpar"),
            JobSpec("hpio", NPROCS,
                    Hpio(file_name="b.dat", region_count=4096, region_bytes=16 * 1024),
                    strategy="dualpar", delay_s=1.0),
        ]
        return ExperimentSpec(
            specs, cluster_spec=spec, dualpar_config=cfg, label=f"T={t_improvement}"
        )

    def run():
        thresholds = (1.0, 3.0, 10.0, 30.0)
        results = run_experiments([scenario(t) for t in thresholds])
        rows = []
        for t, res in zip(thresholds, results):
            switched = len(
                {n for _, n, m in res.dualpar_transitions if m == "datadriven"}
            )
            rows.append([t, res.system_throughput_mb_s, switched])
        return rows

    rows = run_once(benchmark, run)
    report(
        "ablation_t_improvement",
        format_table(
            ["T_improvement", "system MB/s", "programs switched"],
            rows,
            title="Ablation: sensitivity to the T_improvement threshold",
        ),
    )
    # Paper: "system performance is not sensitive to this threshold".
    thpts = [r[1] for r in rows]
    assert max(thpts) / min(thpts) < 1.4
    # The contention is drastic enough that even T=30 still triggers.
    assert all(r[2] == 2 for r in rows)


def test_ablation_hole_filling(benchmark, report):
    """Bridging small holes (reads) turns a holey pattern into large
    sequential requests at the cost of extra data moved."""

    def run():
        # Regions spaced so that whole cache chunks fall in the holes
        # (holes smaller than a chunk are bridged by chunk alignment
        # regardless of the flag).
        cells = [
            ExperimentSpec(
                [JobSpec("h", NPROCS,
                         Hpio(region_count=1536, region_bytes=16 * 1024,
                              region_spacing=112 * 1024),
                         strategy="dualpar-forced")],
                cluster_spec=paper_spec(),
                dualpar_config=DualParConfig(
                    fill_holes=fill, hole_threshold_bytes=128 * 1024
                ),
                label=f"fill={fill}",
            )
            for fill in (True, False)
        ]
        results = run_experiments(cells)
        rows = []
        for fill, res in zip((True, False), results):
            extra = res.total_bytes_served / max(res.jobs[0].bytes_read, 1)
            rows.append(["on" if fill else "off", res.jobs[0].throughput_mb_s, extra])
        return rows

    rows = run_once(benchmark, run)
    report(
        "ablation_hole_filling",
        format_table(
            ["hole filling", "throughput MB/s", "bytes served / bytes requested"],
            rows,
            title="Ablation: CRM hole filling on a sparse (16 KB / 112 KB hole) read pattern",
            float_fmt="{:.2f}",
        ),
    )
    on, off = rows[0], rows[1]
    # Hole filling trades extra data moved for larger sequential requests.
    assert on[2] > off[2], "filling must read strictly more data"
    # On this substrate the elevator + readahead already handle the gaps,
    # so the trade does NOT pay off -- an honest negative result (the
    # paper's gain presumes a scheduler that cannot skip holes cheaply).
    # We assert only that the penalty stays bounded.
    assert on[1] > off[1] * 0.75


def test_ablation_list_io(benchmark, report):
    def run():
        from repro import SyntheticPattern

        # A random access order leaves the CRM's per-cycle chunk set
        # scattered: with list I/O each server gets ONE multi-range
        # message, without it every extent is its own RPC.
        cells = [
            ExperimentSpec(
                [JobSpec("r", NPROCS,
                         SyntheticPattern(file_size=64 * 1024 * 1024,
                                          request_bytes=16 * 1024,
                                          pattern="random"),
                         strategy="dualpar-forced")],
                cluster_spec=paper_spec(),
                dualpar_config=DualParConfig(use_list_io=use, fill_holes=False),
                label=f"list_io={use}",
            )
            for use in (True, False)
        ]
        results = run_experiments(cells)
        return [
            ["on" if use else "off", res.jobs[0].throughput_mb_s]
            for use, res in zip((True, False), results)
        ]

    rows = run_once(benchmark, run)
    report(
        "ablation_list_io",
        format_table(
            ["list I/O", "throughput MB/s"],
            rows,
            title="Ablation: list I/O packing for CRM batches (noncontig)",
        ),
    )
    # Batched single-message issue should not lose to per-extent RPCs.
    assert rows[0][1] >= rows[1][1] * 0.9


def test_ablation_server_writeback(benchmark, report):
    """Server-side write-back caching (the paper forces a 1 s flush):
    the kernel flusher batches vanilla's scattered writes -- narrowing,
    but not closing, DualPar's write advantage, because DualPar's
    application-level batches are sorted across the WHOLE program."""

    def sustained_mb_s(res):
        """Throughput including draining the server write-back buffers --
        the honest number; without the drain a short write benchmark just
        measures its own RAM."""
        sim = res.runtime.sim
        servers = res.cluster.data_servers

        def dirty():
            return sum(
                ds.writeback.dirty_bytes for ds in servers if ds.writeback is not None
            )

        guard = 0
        while dirty() > 0 and guard < 10_000:
            sim.run(until=sim.now + 0.05)
            guard += 1
        total = sum(j.total_bytes for j in res.jobs)
        return total / 1e6 / sim.now

    def run():
        rows = []
        for wb, label in ((None, "write-through"), (1.0, "write-back 1s")):
            row = [label]
            for strategy in ("vanilla", "dualpar-forced"):
                res = run_experiment(
                    [JobSpec("w", NPROCS,
                             MpiIoTest(file_size=48 * 1024 * 1024, op="W",
                                       barrier_every=4),
                             strategy=strategy)],
                    cluster_spec=paper_spec(
                        server_writeback_interval_s=wb,
                        # Small dirty cap: emulate sustained writes that
                        # cannot hide in server RAM.
                        server_writeback_max_dirty=2 * 1024 * 1024,
                    ),
                )
                row.append(res.jobs[0].throughput_mb_s)
                row.append(sustained_mb_s(res))
            rows.append(row)
        return rows

    rows = run_once(benchmark, run)
    report(
        "ablation_server_writeback",
        format_table(
            ["server cache", "vanilla MB/s", "vanilla sustained",
             "DualPar MB/s", "DualPar sustained"],
            rows,
            title="Ablation: server-side write-back caching (mpi-io-test writes);\n"
            "'sustained' includes draining the server buffers to disk",
        ),
    )
    wt, wb = rows[0], rows[1]
    # The kernel flusher improves vanilla's sustained writes (it sorts
    # and batches what trickled in)...
    assert wb[2] > wt[2] * 1.2
    # ...but application-level batching still at least matches it: the
    # flusher can only sort what fits in server RAM at once.
    assert wb[4] > wb[2] * 0.8
    # Write-through: DualPar dominates (the Fig 3(b) regime).
    assert wt[3] > wt[1]


def test_ablation_ghost_compute(benchmark, report):
    """Ghost computation retained vs stripped at a moderate I/O ratio:
    stripping makes cycles cheaper but is what requires source access and
    slicing in the real world (DualPar retains it on purpose)."""

    def run():
        cells = [
            ExperimentSpec(
                [JobSpec("d", 8,
                         Demo(file_size=24 * 1024 * 1024, segment_bytes=4096,
                              compute_per_call=0.002, nprocs_hint=8),
                         strategy="dualpar-forced")],
                cluster_spec=paper_spec(n_compute_nodes=8),
                dualpar_config=DualParConfig(ghost_compute_factor=factor),
                label=f"ghost={factor:.0%}",
            )
            for factor in (1.0, 0.0)
        ]
        results = run_experiments(cells)
        return [
            [f"{factor:.0%}", res.jobs[0].elapsed_s]
            for factor, res in zip((1.0, 0.0), results)
        ]

    rows = run_once(benchmark, run)
    report(
        "ablation_ghost_compute",
        format_table(
            ["ghost compute retained", "execution time (s)"],
            rows,
            title="Ablation: pre-execution computation retained vs sliced away",
            float_fmt="{:.2f}",
        ),
    )
    # Stripping computation can only help wall time (the paper keeps it
    # for prediction fidelity and source-free operation, not speed).
    assert rows[1][1] <= rows[0][1] * 1.05
