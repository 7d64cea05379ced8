"""Figure 7: opportunistic mode switching under a varying workload.

mpi-io-test starts alone (sequential; I/O efficiency is fine, so EMC
leaves it computation-driven).  Later hpio joins, reading its own file:
the interference collapses disk efficiency, EMC's aveSeekDist/aveReqDist
crosses T_improvement, and both programs are switched to data-driven
execution -- recovering throughput until hpio completes (paper: +46%
while both run).  (b) shows the per-server average seek distance falling
after the switch.

Scaled: hpio joins at t=1.5 s instead of t=50 s; 0.5 s sampling windows.
"""

from __future__ import annotations

import paper_cells as cells
from conftest import run_once
from repro import format_table

JOIN_AT_S = cells.FIG7_JOIN_AT_S
WINDOW_S = cells.FIG7_WINDOW_S


def test_fig7_adaptive_mode_switching(benchmark, report):
    def run():
        out = {}
        for strategy in ("vanilla", "dualpar"):
            res = cells.run_live(f"fig7/adaptive/R/{strategy}")
            series = res.timeline.series(WINDOW_S, t_end=res.makespan_s)
            seek_series = [
                (t, m)
                for t, m, n in res.cluster.locality_daemons[0].samples
                if n > 0
            ]
            out[strategy] = {
                "series": series,
                "seek": seek_series,
                "makespan": res.makespan_s,
                "transitions": res.dualpar.transitions if res.dualpar else [],
                "hpio_end": res.job("hpio").end_s,
            }
        return out

    out = run_once(benchmark, run)

    # (a) throughput timelines
    van, dp = out["vanilla"], out["dualpar"]
    n = max(len(van["series"]), len(dp["series"]))
    rows = []
    for i in range(n):
        t = i * WINDOW_S
        v = van["series"][i][1] if i < len(van["series"]) else 0.0
        d = dp["series"][i][1] if i < len(dp["series"]) else 0.0
        rows.append([f"{t:.1f}", v, d])
    text_a = format_table(
        ["t (s)", "vanilla MB/s", "DualPar MB/s"],
        rows,
        title=f"Fig 7(a): system throughput timeline (hpio joins at t={JOIN_AT_S}s)",
    )

    # (b) seek-distance samples on data server 1
    rows_b = [
        [f"{t:.2f}", v_seek, d_seek]
        for (t, v_seek), (_, d_seek) in zip(van["seek"], dp["seek"])
    ]
    text_b = format_table(
        ["t (s)", "vanilla seek (sectors)", "DualPar seek (sectors)"],
        rows_b,
        title="Fig 7(b): average seek distance on data server 1",
        float_fmt="{:.0f}",
    )
    trans_text = "DualPar mode transitions: " + repr(dp["transitions"])
    report("fig7_adaptive", "\n\n".join([text_a, text_b, trans_text]))

    # Before hpio joins the sequential program stays computation-driven...
    assert all(t >= JOIN_AT_S for t, _, _ in dp["transitions"])
    # ...and both programs enter data-driven mode once it does.
    switched = {name for _, name, mode in dp["transitions"] if mode == "datadriven"}
    assert switched == {"mpi-io-test", "hpio"}
    # DualPar improves throughput during the contention phase.
    def phase_mean(info):
        pts = [mb for t, mb in info["series"] if JOIN_AT_S + 2 * WINDOW_S <= t < info["hpio_end"]]
        return sum(pts) / len(pts) if pts else 0.0

    assert phase_mean(dp) > phase_mean(van) * 1.1
    # And finishes the whole scenario sooner.
    assert dp["makespan"] < van["makespan"]
