"""Table III: worst-case mis-prefetch overhead.

An MPI program whose requested addresses depend on previously read data:
every prefetch the pre-execution generates is wrong.  DualPar detects the
high mis-prefetch ratio and turns the data-driven mode off, so the cost
is a one-time overhead that grows mildly with the cache size (paper:
only 7.2% slower at a 4 MB cache).
"""

from __future__ import annotations

import paper_cells as cells
from conftest import run_once
from repro import format_table


def test_table3_misprefetch_overhead(benchmark, report):
    def run():
        keys = {"no DualPar": "table3/dependent/R/vanilla"}
        for kb in cells.TABLE3_QUOTAS_KB:
            keys[f"{kb} KB"] = f"{cells.table3_pattern(kb)}/dualpar"
        res = cells.run(keys.values())
        t_vanilla = res[keys["no DualPar"]].jobs[0].elapsed_s
        rows = []
        for label, key in keys.items():
            t = res[key].jobs[0].elapsed_s
            rows.append([label, t, (t / t_vanilla - 1.0) * 100.0])
        return rows

    rows = run_once(benchmark, run)
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
        res = cells.run_live("table3/dependent/R/dualpar")
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
