"""Figure 8: BTIO throughput vs per-process cache size.

BTIO (non-sequential, tiny requests) runs pinned in data-driven mode
while the per-process cache quota sweeps 0 KB -> 1024 KB.  The paper:
0 KB is "essentially disabled" (vanilla-equivalent, 2.7 MB/s); 64 KB
already gives ~43x because BTIO's native requests are tiny; returns
diminish beyond a few hundred KB.
"""

from __future__ import annotations

import paper_cells as cells
from conftest import run_once
from repro import format_table


def test_fig8_cache_size_sweep(benchmark, report):
    def run():
        labels = {f"fig8/btio-{kb}KB/W/dualpar-forced": f"{kb} KB" for kb in cells.FIG8_QUOTAS_KB}
        # Vanilla reference (the paper's 0 KB equivalence claim).
        labels["fig8/btio/W/vanilla"] = "vanilla"
        res = cells.run(labels)
        return [[label, res[key].jobs[0].throughput_mb_s] for key, label in labels.items()]

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
    vals = [by[f"{kb} KB"] for kb in cells.FIG8_QUOTAS_KB]
    for a, b in zip(vals, vals[1:]):
        assert b > a * 0.75
