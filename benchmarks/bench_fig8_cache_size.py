"""Figure 8: BTIO throughput vs per-process cache size.

BTIO (non-sequential, tiny requests) runs pinned in data-driven mode
while the per-process cache quota sweeps 0 KB -> 1024 KB.  The paper:
0 KB is "essentially disabled" (vanilla-equivalent, 2.7 MB/s); 64 KB
already gives ~43x because BTIO's native requests are tiny; returns
diminish beyond a few hundred KB.
"""

from __future__ import annotations

from conftest import run_once
from repro import (
    Btio,
    DualParConfig,
    ExperimentSpec,
    JobSpec,
    format_table,
    run_experiments,
)
from repro.cluster import paper_spec

NPROCS = 64
QUOTAS_KB = [0, 64, 128, 256, 512, 1024]


def make_workload():
    return Btio(
        total_bytes=8 * 1024 * 1024,
        n_steps=2,
        cell_scale=16384,
        op="W",
        compute_per_step=0.002,
        segments_per_call=64,
    )


def test_fig8_cache_size_sweep(benchmark, report):
    def run():
        cells = [
            ExperimentSpec(
                [JobSpec("btio", NPROCS, make_workload(), strategy="dualpar-forced")],
                cluster_spec=paper_spec(),
                dualpar_config=DualParConfig(quota_bytes=kb * 1024),
                label=f"{kb} KB",
            )
            for kb in QUOTAS_KB
        ]
        # Vanilla reference (the paper's 0 KB equivalence claim).
        cells.append(
            ExperimentSpec(
                [JobSpec("btio", NPROCS, make_workload(), strategy="vanilla")],
                cluster_spec=paper_spec(),
                label="vanilla",
            )
        )
        results = run_experiments(cells)
        labels = [f"{kb} KB" for kb in QUOTAS_KB] + ["vanilla"]
        return [
            [label, res.jobs[0].throughput_mb_s]
            for label, res in zip(labels, results)
        ]

    rows = run_once(benchmark, run)
    report(
        "fig8_cache_size_sweep",
        format_table(
            ["cache per process", "throughput (MB/s)"],
            rows,
            title="Fig 8: BTIO system throughput vs per-process cache size",
        ),
    )
    by = {r[0]: r[1] for r in rows}
    # A small cache already brings a large improvement over 0 KB...
    assert by["64 KB"] > 5 * by["0 KB"]
    # ...with diminishing returns after: doubling 512->1024 gains < 50%.
    assert by["1024 KB"] < by["512 KB"] * 1.5
    # Throughput is non-decreasing in cache size (within 25% tolerance).
    vals = [by[f"{kb} KB"] for kb in QUOTAS_KB]
    for a, b in zip(vals, vals[1:]):
        assert b > a * 0.75
