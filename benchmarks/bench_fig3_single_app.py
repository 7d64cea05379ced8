"""Figure 3: single-application I/O throughput (Section V-B).

One program at a time -- mpi-io-test (sequential), noncontig
(noncontiguous columns), ior-mpi-io (random-across-ranks) -- each with
read and write variants, under vanilla MPI-IO, collective I/O, and
DualPar (pinned data-driven, as the paper runs this section).

Expected shapes (paper values in MB/s for reads: mpi-io-test
115/117/263, noncontig: DualPar 390 = 1.57x collective, ior-mpi-io:
collective loses its advantage, DualPar +150%):

- DualPar has the highest throughput on every workload;
- collective I/O ~ vanilla on ior-mpi-io (striping mismatch);
- DualPar's margin over collective is largest on noncontig.
"""

from __future__ import annotations

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
SCHEMES = ["vanilla", "collective", "dualpar-forced"]


def workloads(op: str):
    return [
        ("mpi-io-test", lambda: MpiIoTest(file_size=64 * 1024 * 1024, op=op)),
        ("noncontig", lambda: Noncontig(elmtcount=256, n_rows=4096, op=op)),
        ("ior-mpi-io", lambda: IorMpiIo(file_size=128 * 1024 * 1024, op=op)),
    ]


def run_grid(op: str):
    cells = [
        ExperimentSpec(
            [JobSpec(wname, NPROCS, build(), strategy=scheme)],
            cluster_spec=paper_spec(),
            label=f"{wname}/{scheme}",
        )
        for wname, build in workloads(op)
        for scheme in SCHEMES
    ]
    results = run_experiments(cells)
    rows = []
    for wi, (wname, _build) in enumerate(workloads(op)):
        row = [wname]
        for si in range(len(SCHEMES)):
            row.append(results[wi * len(SCHEMES) + si].jobs[0].throughput_mb_s)
        rows.append(row)
    return rows


def check_shapes(rows):
    by_name = {r[0]: r[1:] for r in rows}
    for name, (van, coll, dp) in by_name.items():
        assert dp > van, f"{name}: DualPar must beat vanilla ({dp:.0f} vs {van:.0f})"
    # ior: collective gains nothing (within 35% of vanilla, and below DualPar).
    van, coll, dp = by_name["ior-mpi-io"]
    assert coll < dp
    assert coll < van * 1.35
    # noncontig: both optimisations crush vanilla; DualPar ahead of collective.
    van, coll, dp = by_name["noncontig"]
    assert coll > van and dp > coll


def test_fig3a_single_app_read(benchmark, report):
    rows = run_once(benchmark, lambda: run_grid("R"))
    report(
        "fig3a_single_app_read",
        format_table(
            ["workload", "vanilla MPI-IO", "collective I/O", "DualPar"],
            rows,
            title="Fig 3(a): single-program READ throughput (MB/s)",
        ),
    )
    check_shapes(rows)


def test_fig3b_single_app_write(benchmark, report):
    rows = run_once(benchmark, lambda: run_grid("W"))
    report(
        "fig3b_single_app_write",
        format_table(
            ["workload", "vanilla MPI-IO", "collective I/O", "DualPar"],
            rows,
            title="Fig 3(b): single-program WRITE throughput (MB/s)",
        ),
    )
    by_name = {r[0]: r[1:] for r in rows}
    for name, (van, coll, dp) in by_name.items():
        assert dp > van, f"{name}: DualPar must beat vanilla on writes"
