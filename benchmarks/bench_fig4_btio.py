"""Figure 4: three concurrent BTIO instances, throughput vs process count.

The paper runs three BTIO programs concurrently (each writing its own
solution file) at 16, 64, and 256 processes.  BTIO's per-rank request
size shrinks with the process count (4 bytes at 256 procs in the paper;
scaled here -- see DESIGN.md), so vanilla MPI-IO collapses while
collective I/O and DualPar transform the tiny writes into large ones
(paper: up to 24x and 35x over vanilla).  Collective's edge *shrinks* as
processes grow (its per-call exchange grows with P); DualPar scales
better.
"""

from __future__ import annotations

import pytest

from conftest import run_once
from repro import Btio, ExperimentSpec, JobSpec, format_table, run_experiments
from repro.cluster import paper_spec

N_INSTANCES = 3
#: Scaled solution size per instance (paper: 6.8 GB; see DESIGN.md).
TOTAL_BYTES = 6 * 1024 * 1024
SCHEMES = ["vanilla", "collective", "dualpar-forced"]
NPROCS_SWEEP = [16, 64, 256]


def make_specs(nprocs: int, scheme: str):
    return [
        JobSpec(
            f"btio{i}",
            nprocs,
            Btio(
                file_name=f"btio{i}.dat",
                total_bytes=TOTAL_BYTES,
                n_steps=2,
                cell_scale=16384,
                op="W",
                compute_per_step=0.002,
                segments_per_call=64,
            ),
            strategy=scheme,
        )
        for i in range(N_INSTANCES)
    ]


def test_fig4_btio_scaling(benchmark, report):
    def run():
        cells = [
            ExperimentSpec(
                make_specs(nprocs, scheme),
                cluster_spec=paper_spec(),
                label=f"P={nprocs}/{scheme}",
            )
            for nprocs in NPROCS_SWEEP
            for scheme in SCHEMES
        ]
        results = run_experiments(cells)
        rows = []
        for pi, nprocs in enumerate(NPROCS_SWEEP):
            row = [nprocs]
            for si in range(len(SCHEMES)):
                row.append(results[pi * len(SCHEMES) + si].system_throughput_mb_s)
            rows.append(row)
        return rows

    rows = run_once(benchmark, run)
    report(
        "fig4_btio_scaling",
        format_table(
            ["# processes", "vanilla MPI-IO", "collective I/O", "DualPar"],
            rows,
            title=(
                "Fig 4: system throughput, 3 concurrent BTIO instances (MB/s)\n"
                f"(scaled: {TOTAL_BYTES // 2**20} MB/instance, cell = 16384//P bytes)"
            ),
        ),
    )
    for nprocs, van, coll, dp in rows:
        assert coll > 2 * van, f"P={nprocs}: collective must crush vanilla"
        assert dp > 2 * van, f"P={nprocs}: DualPar must crush vanilla"
    # Vanilla degrades as requests shrink with more processes.
    assert rows[-1][1] < rows[0][1]
    # Collective's advantage over DualPar shrinks with process count
    # (paper: "the performance advantage of collective IO gradually
    # reduced when more processes are used ... DualPar has better
    # scalability").
    ratio_16 = rows[0][3] / rows[0][2]
    ratio_256 = rows[-1][3] / rows[-1][2]
    assert ratio_256 > ratio_16
    # At the largest process count DualPar is at least on par.
    assert rows[-1][3] >= rows[-1][2] * 0.95
