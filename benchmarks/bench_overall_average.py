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

import pytest

from conftest import run_once
from repro import (
    ExperimentSpec,
    IorMpiIo,
    JobSpec,
    MpiIoTest,
    Noncontig,
    format_table,
    run_experiments,
)
from repro.cluster import paper_spec

NPROCS = 64


def grid():
    """(row name, job name, workload).  The job names and specs are the
    ones ``bench_fig3_single_app`` submits, so every cell here is a
    result-catalog hit once Fig 3 has run."""
    return [
        ("mpi-io-test R", "mpi-io-test", MpiIoTest(file_size=64 * 1024 * 1024, op="R")),
        ("mpi-io-test W", "mpi-io-test", MpiIoTest(file_size=64 * 1024 * 1024, op="W")),
        ("noncontig R", "noncontig", Noncontig(elmtcount=256, n_rows=4096, op="R")),
        ("ior-mpi-io R", "ior-mpi-io", IorMpiIo(file_size=128 * 1024 * 1024, op="R")),
        ("ior-mpi-io W", "ior-mpi-io", IorMpiIo(file_size=128 * 1024 * 1024, op="W")),
    ]


def test_overall_average_improvement(benchmark, report):
    def run():
        schemes = ("vanilla", "collective", "dualpar-forced")
        specs = [
            ExperimentSpec(
                [JobSpec(job, NPROCS, workload, strategy=scheme)],
                cluster_spec=paper_spec(),
                label=f"{job}/{scheme}",
            )
            for _name, job, workload in grid()
            for scheme in schemes
        ]
        results = run_experiments(specs)
        rows = []
        for wi, (name, _job, _workload) in enumerate(grid()):
            cells = {
                scheme: results[wi * len(schemes) + si].jobs[0].throughput_mb_s
                for si, scheme in enumerate(schemes)
            }
            best_base = max(cells["vanilla"], cells["collective"])
            rows.append(
                [
                    name,
                    cells["vanilla"],
                    cells["collective"],
                    cells["dualpar-forced"],
                    (cells["dualpar-forced"] / best_base - 1.0) * 100.0,
                ]
            )
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
