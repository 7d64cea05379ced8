"""Table III: worst-case mis-prefetch overhead.

An MPI program whose requested addresses depend on previously read data:
every prefetch the pre-execution generates is wrong.  DualPar detects the
high mis-prefetch ratio and turns the data-driven mode off, so the cost
is a one-time overhead that grows mildly with the cache size (paper:
only 7.2% slower at a 4 MB cache).
"""

from __future__ import annotations

from conftest import run_once
from repro import DependentReads, DualParConfig, JobSpec, format_table, run_experiment
from repro.cluster import paper_spec

NPROCS = 16
QUOTAS_KB = [512, 1024, 2048, 4096]


def make_workload():
    return DependentReads(file_size=96 * 1024 * 1024, request_bytes=64 * 1024)


def test_table3_misprefetch_overhead(benchmark, report):
    def run():
        base = run_experiment(
            [JobSpec("dep", NPROCS, make_workload(), strategy="vanilla")],
            cluster_spec=paper_spec(n_compute_nodes=16),
        )
        t_vanilla = base.jobs[0].elapsed_s
        rows = [["no DualPar", t_vanilla, 0.0]]
        for kb in QUOTAS_KB:
            res = run_experiment(
                [JobSpec("dep", NPROCS, make_workload(), strategy="dualpar")],
                cluster_spec=paper_spec(n_compute_nodes=16),
                dualpar_config=DualParConfig(
                    quota_bytes=kb * 1024,
                    # Entry pinned open so the adversary actually tricks
                    # DualPar into a wasted cycle, as in the paper's setup.
                    io_ratio_enter=0.0,
                    io_ratio_exit=0.0,
                    t_improvement=1e-9,
                    emc_interval_s=0.1,
                ),
            )
            t = res.jobs[0].elapsed_s
            rows.append([f"{kb} KB", t, (t / t_vanilla - 1.0) * 100.0])
        return rows, t_vanilla

    rows, t_vanilla = run_once(benchmark, run)
    report(
        "table3_misprefetch_overhead",
        format_table(
            ["cache size", "execution time (s)", "overhead vs vanilla (%)"],
            rows,
            title="Table III: worst case (all prefetches wrong), 96 MB dependent reads",
            float_fmt="{:.2f}",
        ),
    )
    # Even at the largest cache the overhead stays bounded (paper: 7.2%
    # at 4 MB; we allow a generous band since substrate constants differ).
    worst = max(r[2] for r in rows[1:])
    assert worst < 30.0, f"worst-case overhead {worst:.1f}% too high"


def test_table3_mode_disabled_after_detection(benchmark, report):
    """The 'one-time overhead' claim: DualPar locks the mode out."""

    def run():
        res = run_experiment(
            [JobSpec("dep", NPROCS, make_workload(), strategy="dualpar")],
            cluster_spec=paper_spec(n_compute_nodes=16),
            dualpar_config=DualParConfig(
                io_ratio_enter=0.0, io_ratio_exit=0.0,
                t_improvement=1e-9, emc_interval_s=0.1,
            ),
        )
        eng = res.mpi_jobs[0].engine
        return {
            "cycles": eng.pec.n_cycles,
            "locked_out": eng.locked_out,
            "history": eng.pec.misprefetch_history,
        }

    out = run_once(benchmark, run)
    report(
        "table3_lockout",
        f"prefetch cycles before lockout: {out['cycles']}\n"
        f"locked out: {out['locked_out']}\n"
        f"mis-prefetch ratios per cycle: {out['history']}",
    )
    if out["cycles"] >= 2:
        assert out["locked_out"]
        assert out["cycles"] < 10, "lockout must happen within a few cycles"
