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

import paper_cells as cells
from conftest import run_once
from repro import format_table


def test_ablation_io_scheduler(benchmark, report):
    def run():
        strategies = ("vanilla", "dualpar-forced")
        keys = [f"ablation/io-scheduler-{e}/R/{s}" for e in cells.IO_SCHEDULERS for s in strategies]
        res = cells.run(keys)
        return [
            [e] + [res[f"ablation/io-scheduler-{e}/R/{s}"].jobs[0].throughput_mb_s
                   for s in strategies]
            for e in cells.IO_SCHEDULERS
        ]

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

    def run():
        res = cells.run(f"ablation/t-improvement-T{t:g}/R/dualpar" for t in cells.T_IMPROVEMENTS)
        rows = []
        for t, r in zip(cells.T_IMPROVEMENTS, res.values()):
            switched = len({n for _, n, m in r.dualpar_transitions if m == "datadriven"})
            rows.append([t, r.system_throughput_mb_s, switched])
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
        res = cells.run(f"ablation/hole-filling-{f}/R/dualpar-forced" for f in ("on", "off"))
        rows = []
        for fill, r in zip(("on", "off"), res.values()):
            extra = r.total_bytes_served / max(r.jobs[0].bytes_read, 1)
            rows.append([fill, r.jobs[0].throughput_mb_s, extra])
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
        res = cells.run(f"ablation/list-io-{use}/R/dualpar-forced" for use in ("on", "off"))
        return [[use, r.jobs[0].throughput_mb_s] for use, r in zip(("on", "off"), res.values())]

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
        for cache, label in (("writethrough", "write-through"), ("writeback", "write-back 1s")):
            row = [label]
            for strategy in ("vanilla", "dualpar-forced"):
                res = cells.run_live(f"ablation/server-{cache}/W/{strategy}")
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
        res = cells.run(f"ablation/ghost-compute-{p}/R/dualpar-forced" for p in (100, 0))
        return [[f"{p}%", r.jobs[0].elapsed_s] for p, r in zip((100, 0), res.values())]

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
