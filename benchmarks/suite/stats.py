"""Metric catalogue and the statistics the suite reports with.

The catalogue is the one list of metric names, units and directions;
``BENCHMARK.json`` at the repository root mirrors it (a harness test
keeps the two in step).
"""

from __future__ import annotations

import math
import re
import statistics
from dataclasses import dataclass
from typing import Optional, Sequence

from layers import LAYERS

__all__ = [
    "END_TO_END",
    "PER_LAYER",
    "Metric",
    "percentile",
    "quartiles",
    "tail_percentile",
    "valid_name",
]

_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

#: Percentiles a tail is reported at, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" | "higher"
    #: Share of the parent's median the metric may worsen by (end-to-end
    #: metrics only).
    bound: Optional[float] = None


def valid_name(name: str) -> bool:
    """Metric names are 1-64 of ``[A-Za-z0-9_.-]``, starting alphanumeric."""
    return _NAME.fullmatch(name) is not None


#: Host times are reported at reference speed (calibrate.py), which takes
#: most of a shared VM's drift out of them; what is left reaches 5-8 %
#: (IQR/median over ten runs) in the host's slowest phases, so timing
#: bounds stay at the 0.25 ceiling (README, "Noise and bounds").  Memory
#: repeats to within 1 %.
END_TO_END = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("wall_s", "s", "lower", 0.25),
    Metric("read_wall_s", "s", "lower", 0.25),
    Metric("write_wall_s", "s", "lower", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.05),
)

PER_LAYER = (
    *(Metric(f"{layer}.self_s", "s", "lower") for layer in LAYERS),
    *(Metric(f"{layer}.calls", "count", "lower") for layer in LAYERS),
    Metric("trace.overhead", "ratio", "lower"),
    Metric("sim.loop_ev_per_s", "1/s", "higher"),
    Metric("sim.makespan_s", "s", "lower"),
    Metric("mpi.io_time_s", "s", "lower"),
    Metric("pfs.server_requests", "count", "lower"),
    Metric("pfs.bytes_served", "B", "lower"),
    Metric("pfs.useful_ratio", "ratio", "higher"),
    Metric("iosched.units", "count", "lower"),
    Metric("iosched.mean_depth", "count", "higher"),
    Metric("iosched.unit_kb", "KB", "higher"),
    Metric("disk.requests", "count", "lower"),
    Metric("disk.seek_sectors_per_req", "count", "lower"),
    Metric("disk.busy_s", "s", "lower"),
    Metric("cache.gets", "count", "lower"),
    Metric("cache.hit_ratio", "ratio", "higher"),
    Metric("cache.evictions", "count", "lower"),
    Metric("core.transitions", "count", "lower"),
    Metric("service.job_p50_s", "s", "lower"),
    Metric("service.job_tail_s", "s", "lower"),
    Metric("service.job_tail_pct", "%", "higher"),
    Metric("service.jobs_ran", "count", "higher"),
    Metric("service.hit_p50_ms", "ms", "lower"),
    Metric("service.hit_tail_ms", "ms", "lower"),
    Metric("service.run_p50_s", "s", "lower"),
    Metric("service.overhead_p50_ms", "ms", "lower"),
    Metric("service.queued", "count", "lower"),
    Metric("service.joined", "count", "higher"),
    Metric("service.cached", "count", "higher"),
    Metric("service.requeues", "count", "lower"),
    Metric("runner.grid_wall_s", "s", "lower"),
    Metric("runner.store_hit_ms", "ms", "lower"),
)


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile (``pct`` in 0-100) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(math.ceil(len(ordered) * pct / 100.0), 1)
    return ordered[rank - 1]


def tail_percentile(n: int, beyond: int = 10) -> Optional[float]:
    """The highest percentile on :data:`TAIL_LADDER` with at least
    ``beyond`` of ``n`` samples above it, or None when even the median
    has fewer."""
    for pct in TAIL_LADDER:
        if n - math.ceil(n * pct / 100.0) >= beyond:
            return pct
    return None


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """(Q1, median, Q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3
