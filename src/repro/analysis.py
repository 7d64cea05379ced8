"""Post-experiment analysis: efficiency and utilisation reports.

Turns an :class:`~repro.runner.experiment.ExperimentResult` into the
numbers an operator (or the paper's authors) would look at: per-server
disk efficiency, elevator behaviour, network load, cache effectiveness,
and DualPar cycle accounting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.runner.results import format_table

if TYPE_CHECKING:  # pragma: no cover
    from repro.runner.experiment import ExperimentResult

__all__ = [
    "DiskReport",
    "CacheReport",
    "analyze_disks",
    "analyze_cache",
    "analyze_network",
    "dualpar_lines",
    "job_table",
    "summarize",
]


@dataclass(frozen=True)
class DiskReport:
    """Per-server disk service summary."""

    server: int
    n_requests: int
    bytes_served: int
    busy_s: float
    utilization: float
    mean_unit_kb: float
    mean_queue_depth: float
    mean_seek_sectors: float
    effective_mb_s: float

    @property
    def efficiency(self) -> float:
        """Fraction of the streaming rate achieved while busy."""
        if self.busy_s <= 0:
            return 0.0
        return self.bytes_served / self.busy_s / 1e6 / 75.0  # vs ~75 MB/s media


@dataclass(frozen=True)
class CacheReport:
    n_gets: int
    hit_ratio: float
    n_puts: int
    n_evictions: int
    resident_mb: float


def analyze_disks(result: "ExperimentResult") -> list[DiskReport]:
    """Per-server disk service summaries for one experiment."""

    out = []
    makespan = max(result.makespan_s, 1e-12)
    for ds in result.cluster.data_servers:
        d = ds.device.stats
        blk = ds.block_layer.stats
        out.append(
            DiskReport(
                server=ds.server_index,
                n_requests=d.n_requests,
                bytes_served=d.total_bytes,
                busy_s=d.total_busy_s,
                utilization=min(d.total_busy_s / makespan, 1.0),
                mean_unit_kb=blk.mean_unit_sectors * 512 / 1024,
                mean_queue_depth=blk.mean_queue_depth,
                mean_seek_sectors=(
                    d.total_seek_sectors / d.n_requests if d.n_requests else 0.0
                ),
                effective_mb_s=(
                    d.total_bytes / 1e6 / d.total_busy_s if d.total_busy_s > 0 else 0.0
                ),
            )
        )
    return out


def analyze_cache(result: "ExperimentResult") -> Optional[CacheReport]:
    """Global-cache usage summary, or None when the cache saw no traffic."""

    cache = result.runtime.global_cache
    if cache.n_gets == 0 and cache.n_puts == 0:
        return None
    return CacheReport(
        n_gets=cache.n_gets,
        hit_ratio=cache.hit_ratio,
        n_puts=cache.n_puts,
        n_evictions=cache.n_evictions,
        resident_mb=cache.resident_bytes() / 1e6,
    )


def analyze_network(result: "ExperimentResult") -> dict:
    """Aggregate network counters: messages, bytes moved, busiest node."""

    net = result.cluster.network
    sent = sum(n.bytes_sent for n in net.nics)
    busiest = max(net.nics, key=lambda n: n.bytes_sent + n.bytes_received)
    return {
        "messages": net.messages_delivered,
        "total_mb_moved": sent / 1e6,
        "busiest_node": busiest.node_id,
        "busiest_node_mb": (busiest.bytes_sent + busiest.bytes_received) / 1e6,
    }


def job_table(result: "ExperimentResult", title: str) -> str:
    """The per-job measurements of one experiment as a table."""
    return format_table(
        ["job", "strategy", "ranks", "time (s)", "MB/s", "I/O ratio"],
        [
            [j.name, j.strategy, j.nprocs, j.elapsed_s, j.throughput_mb_s,
             f"{j.io_ratio:.0%}"]
            for j in result.jobs
        ],
        title=title,
        float_fmt="{:.2f}",
    )


def dualpar_lines(result: "ExperimentResult") -> list[str]:
    """One line of DualPar internals per job that ran a DualPar engine."""
    lines = []
    for mj in result.mpi_jobs:
        eng = mj.engine
        if hasattr(eng, "pec"):
            lines.append(
                f"DualPar[{mj.name}]: mode={mj.mode}, "
                f"{eng.pec.n_cycles} prefetch cycles "
                f"({eng.pec.n_deadline_stops} deadline stops), "
                f"prefetched {eng.crm.prefetched_bytes / 1e6:.1f} MB, "
                f"wrote back {eng.crm.writeback_bytes / 1e6:.1f} MB, "
                f"cache hits/misses {eng.n_cache_hits}/{eng.n_cache_misses}, "
                f"direct fallback {eng.n_direct_fallback_bytes / 1e6:.2f} MB"
            )
    return lines


def summarize(result: "ExperimentResult") -> str:
    """A complete plain-text report for one experiment."""
    parts = [job_table(result, title="jobs")]
    disks = analyze_disks(result)
    parts.append(
        format_table(
            ["server", "requests", "MB", "busy (s)", "util", "unit KB",
             "queue", "seek (sect)", "busy MB/s"],
            [
                [r.server, r.n_requests, r.bytes_served / 1e6, r.busy_s,
                 f"{r.utilization:.0%}", r.mean_unit_kb, r.mean_queue_depth,
                 r.mean_seek_sectors, r.effective_mb_s]
                for r in disks
            ],
            title="data servers",
            float_fmt="{:.1f}",
        )
    )
    cache = analyze_cache(result)
    if cache is not None:
        parts.append(
            f"global cache: {cache.n_gets} gets ({cache.hit_ratio:.0%} hits), "
            f"{cache.n_puts} puts, {cache.n_evictions} evictions, "
            f"{cache.resident_mb:.1f} MB resident"
        )
    net = analyze_network(result)
    parts.append(
        f"network: {net['messages']} messages, {net['total_mb_moved']:.1f} MB moved, "
        f"busiest node {net['busiest_node']} "
        f"({net['busiest_node_mb']:.1f} MB in+out)"
    )
    parts.extend(dualpar_lines(result))
    return "\n\n".join(parts)
