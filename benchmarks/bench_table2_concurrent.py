"""Table II + Figure 6: two concurrent mpi-io-test instances.

Each instance streams its own file; their requests interleave at the
shared data servers and the disk head ping-pongs between the two files'
regions under vanilla MPI-IO.  DualPar accumulates, sorts, and batches,
so requests arrive "in a bursty manner and with an optimized order".

Paper Table II (MB/s): read 160/168/284, write 54/67/127 -- DualPar
roughly doubles vanilla on both.  Fig 6 shows the LBN traces; the paper
reports DualPar cutting the average seek distance by up to 10x.
"""

from __future__ import annotations

import paper_cells as cells
from conftest import run_once
from repro import format_table


def test_table2_concurrent_throughput(benchmark, report):
    def run():
        res = cells.run(f"table2/mpi-io-test-x2/{op}/{s}" for op in "RW" for s in cells.SCHEMES)
        return [
            [label] + [res[f"table2/mpi-io-test-x2/{op}/{s}"].system_throughput_mb_s
                       for s in cells.SCHEMES]
            for op, label in (("R", "Read"), ("W", "Write"))
        ]

    rows = run_once(benchmark, run)
    report(
        "table2_concurrent_throughput",
        format_table(
            ["op", "vanilla MPI-IO", "collective I/O", "DualPar"],
            rows,
            title="Table II: aggregate throughput, 2 concurrent mpi-io-test (MB/s)",
        ),
    )
    for label, van, coll, dp in rows:
        assert dp > van, f"{label}: DualPar must beat vanilla"
        assert dp > coll * 0.95, f"{label}: DualPar must be at least on par with collective"
    # Reads: DualPar's margin over vanilla is substantial (paper ~1.8x).
    assert rows[0][3] > rows[0][1] * 1.3


def test_fig6_interference_traces(benchmark, report):
    def run():
        out = {}
        for scheme in ("vanilla", "dualpar-forced"):
            res = cells.run_live(f"table2/mpi-io-test-x2/R/{scheme}")
            trace = res.cluster.traces[0]
            t1 = min(j.end_s for j in res.jobs)
            mid0, mid1 = t1 * 0.3, min(t1 * 0.3 + 1.0, t1)
            out[scheme] = (
                trace.mean_seek_distance(0, t1),
                trace.ascii_plot(mid0, mid1, width=64, height=14),
                res.system_throughput_mb_s,
            )
        return out

    out = run_once(benchmark, run)
    text = []
    for scheme, (seek, art, thpt) in out.items():
        text.append(
            f"Fig 6 ({scheme}): mean seek distance={seek:.0f} sectors, "
            f"throughput={thpt:.1f} MB/s\n{art}\n"
        )
    report("fig6_interference_traces", "\n".join(text))
    # DualPar sharply reduces the average seek distance (paper: up to 10x).
    assert out["dualpar-forced"][0] < out["vanilla"][0] / 2
