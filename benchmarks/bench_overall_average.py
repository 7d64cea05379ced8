"""The conclusion's headline number.

"Our experimental evaluation ... shows that DualPar can effectively
improve I/O efficiency in various scenarios, whether or not collective
I/O is used, increasing system I/O throughput by 31% on average."

This bench runs a compact grid over the single-application workloads and
reports DualPar's improvement over BOTH baselines -- vanilla MPI-IO and
collective I/O -- plus the geometric-mean improvement over the best
baseline per cell, which is the conservative reading of the claim.
"""

from __future__ import annotations

import math

import paper_cells as cells
from conftest import run_once
from repro import format_table

#: The Fig 3 patterns, read by key (catalog hits once Fig 3 has run).
PATTERNS = [
    ("mpi-io-test R", "fig3/mpi-io-test/R"),
    ("mpi-io-test W", "fig3/mpi-io-test/W"),
    ("noncontig R", "fig3/noncontig/R"),
    ("ior-mpi-io R", "fig3/ior-mpi-io/R"),
    ("ior-mpi-io W", "fig3/ior-mpi-io/W"),
]


def test_overall_average_improvement(benchmark, report):
    def run():
        res = cells.run(f"{p}/{s}" for _name, p in PATTERNS for s in cells.SCHEMES)
        rows = []
        for name, pattern in PATTERNS:
            van, coll, dp = (res[f"{pattern}/{s}"].jobs[0].throughput_mb_s
                             for s in cells.SCHEMES)
            rows.append([name, van, coll, dp, (dp / max(van, coll) - 1.0) * 100.0])
        return rows

    rows = run_once(benchmark, run)
    gmean = math.exp(
        sum(math.log(max(1.0 + r[4] / 100.0, 1e-9)) for r in rows) / len(rows)
    )
    rows.append(["GEOMEAN vs best baseline", "", "", "", (gmean - 1.0) * 100.0])
    report(
        "overall_average_improvement",
        format_table(
            ["workload", "vanilla", "collective", "DualPar", "gain vs best (%)"],
            rows,
            title="Conclusion check: DualPar vs the BEST of vanilla/collective "
            "per cell (paper: +31% average)",
        ),
    )
    # The paper's headline band: meaningful positive average improvement
    # over the best competing scheme.
    assert (gmean - 1.0) * 100.0 > 15.0
