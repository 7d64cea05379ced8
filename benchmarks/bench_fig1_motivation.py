"""Figure 1 + Table I: the motivating experiment (Section II).

The synthetic ``demo`` program (8 processes, noncontiguous 16-segment
vector reads sweeping a file front to back) is run under the three
strategies of Table I:

- Strategy 1: computation-driven execution (vanilla MPI-IO);
- Strategy 2: pre-execution prefetching, requests issued immediately,
  computation sliced away;
- Strategy 3: data-driven execution (DualPar pinned in data-driven mode,
  ghost computation retained).

(a) execution time vs I/O ratio (compute time calibrated per ratio, as
the paper does); (b) execution time vs segment size at I/O ratio 0.9;
(c)/(d) the LBN access sequence on data server 1 under strategies 2 and 3.
"""

from __future__ import annotations

import paper_cells as cells
from conftest import run_once
from repro import format_table


def demo_rows(points, label):
    """``[label(kb, ratio), strategy 1-3 execution times]`` per point."""
    keys = {
        (point, s): f"{cells.fig1_pattern(*point)}/{s}"
        for point in points
        for s in cells.STRATEGIES
    }
    res = cells.run(keys.values())
    return [
        [label(*point)] + [res[keys[point, s]].jobs[0].elapsed_s for s in cells.STRATEGIES]
        for point in points
    ]


def test_fig1a_io_ratio_sweep(benchmark, report):
    """Fig 1(a): strategy 2 wins at low I/O ratio, strategy 3 at high."""

    rows = run_once(benchmark, lambda: demo_rows(
        [(4, ratio) for ratio in cells.FIG1_RATIOS], lambda kb, ratio: f"{ratio:.0%}"
    ))
    report(
        "fig1a_io_ratio_sweep",
        format_table(
            ["I/O ratio", "strategy1 (s)", "strategy2 (s)", "strategy3 (s)"],
            rows,
            title="Fig 1(a): demo execution time vs I/O ratio (4 KB segments)",
            float_fmt="{:.2f}",
        ),
    )
    # Low ratio: prefetching (S2) beats suspend-everything (S3).
    low = rows[0]
    assert low[2] < low[3], "S2 should win at low I/O intensity"
    # Fully I/O bound: S3 is the fastest of the three (paper: ~36% faster).
    high = rows[-1]
    assert high[3] < high[1] and high[3] < high[2], "S3 should win at ~100% I/O"


def test_fig1b_segment_size_sweep(benchmark, report):
    """Fig 1(b): S3's edge is large for small segments, fades beyond 32 KB."""

    rows = run_once(benchmark, lambda: demo_rows(
        [(kb, 0.9) for kb in cells.FIG1_SEGMENTS_KB], lambda kb, ratio: f"{kb} KB"
    ))
    report(
        "fig1b_segment_size_sweep",
        format_table(
            ["segment", "strategy1 (s)", "strategy2 (s)", "strategy3 (s)"],
            rows,
            title="Fig 1(b): demo execution time vs segment size (I/O ratio 90%)",
            float_fmt="{:.2f}",
        ),
    )
    # S3 beats S2 clearly at 4 KB...
    s2_over_s3_small = rows[0][2] / rows[0][3]
    # ...and the advantage shrinks by 128 KB.
    s2_over_s3_large = rows[-1][2] / rows[-1][3]
    assert s2_over_s3_small > 1.1
    assert s2_over_s3_large < s2_over_s3_small


def test_fig1cd_disk_access_order(benchmark, report):
    """Fig 1(c,d): S2 produces back-and-forth head movement; S3's service
    order sweeps mostly one way."""

    def run():
        out = {}
        for label, strategy in (("c_strategy2", "prefetch"), ("d_strategy3", "dualpar-forced")):
            res = cells.run_live(f"fig1/demo/R/{strategy}")
            trace = res.cluster.traces[0]
            st = res.cluster.data_servers[0].block_layer.stats
            t1 = res.jobs[0].end_s
            mid0, mid1 = t1 * 0.3, t1 * 0.7
            out[label] = (
                trace.monotonicity(0, t1),
                trace.mean_seek_distance(0, t1),
                st.n_units_served,
                st.mean_unit_sectors * 512 / 1024,
                trace.ascii_plot(mid0, mid1, width=64, height=14),
            )
        return out

    out = run_once(benchmark, run)
    text = []
    for label, (mono, seek, units, unit_kb, art) in out.items():
        text.append(
            f"Fig 1({label}): forward-motion fraction={mono:.2f}, "
            f"mean seek={seek:.0f} sectors, disk ops={units}, "
            f"mean op size={unit_kb:.0f} KB\n{art}\n"
        )
    report("fig1cd_disk_access_order", "\n".join(text))
    # The paper contrasts S2's fragmented issue order with S3's batch: in
    # this substrate the robust observable is that S3 moves the same data
    # in no more disk operations than S2 (larger effective requests --
    # "the average request size is 128KB for Strategy 3 and 12KB for
    # Strategy 2").  Head-movement direction is muted here because the
    # simulated kernel readahead straightens S2's order; see
    # EXPERIMENTS.md.
    assert out["d_strategy3"][2] <= out["c_strategy2"][2]


def test_table1_strategy_characteristics(benchmark, report):
    """Table I, measured: overlap of computation and I/O, and the
    correlation between computation order and I/O service order."""

    def run():
        rows = []
        baseline_io = None
        for name, strategy in zip(("strategy1", "strategy2", "strategy3"), cells.STRATEGIES):
            res = cells.run_live(f"table1/demo-4KB-io30/R/{strategy}")
            j = res.jobs[0]
            if baseline_io is None:
                baseline_io = j.io_time_s
            # "Overlap": fraction of the baseline's visible I/O wait this
            # strategy hides behind computation.
            hidden = max(0.0, 1.0 - j.io_time_s / baseline_io)
            mono = res.cluster.traces[0].monotonicity(0, j.end_s)
            rows.append([name, j.elapsed_s, hidden, mono])
        return rows

    rows = run_once(benchmark, run)
    report(
        "table1_strategy_characteristics",
        format_table(
            ["strategy", "exec time (s)", "I/O hidden vs S1", "service-order monotonicity"],
            rows,
            title="Table I (measured): strategy characteristics at I/O ratio 30%",
            float_fmt="{:.2f}",
        ),
    )
    # In its sweet spot (compute-rich), strategy 2 finishes first by
    # overlapping I/O with computation.
    assert rows[1][1] < rows[0][1]
