"""Cluster configuration."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.disk.drive import DiskParams
from repro.net.ethernet import NetworkParams

__all__ = ["ClusterSpec", "paper_spec"]


def paper_spec(n_compute_nodes: int = 32, **overrides) -> "ClusterSpec":
    """The Darwin-like configuration the benchmarks run on.

    The paper spreads 64-256 MPI processes across ~107 compute nodes (1-2
    ranks per node); 32 simulated compute nodes keeps that low rank-per-NIC
    density while bounding event counts.  Data-server side matches the
    paper: 9 servers, CFQ, 64 KB striping.
    """
    return ClusterSpec(n_compute_nodes=n_compute_nodes, **overrides)


@dataclass(frozen=True)
class ClusterSpec:
    """A scaled-down Darwin-like testbed.

    The paper's cluster: 120 nodes, 9 PVFS2 data servers (one doubling as
    metadata server), GigE, CFQ, 64 KB stripes.
    Simulation defaults keep that shape with fewer compute nodes; every
    knob the experiments sweep is explicit here.
    """

    n_compute_nodes: int = 8
    n_data_servers: int = 9
    disk: DiskParams = field(default_factory=lambda: DiskParams(capacity_bytes=100 * 10**9))
    network: NetworkParams = field(default_factory=NetworkParams)
    io_scheduler: str = "cfq"
    stripe_unit: int = 64 * 1024
    #: Extent placement on server disks ('spread' | 'packed').
    placement: str = "spread"
    #: Attach a BlkTrace to every data-server disk.
    trace_disks: bool = False
    #: Locality-daemon sampling interval (paper: constant time slots).
    locality_interval_s: float = 0.5
    #: Server-side write-back caching: None = write-through (the
    #: calibrated default); a number enables a kernel-flusher-style
    #: buffer flushed every that-many seconds (the paper's servers force
    #: dirty writeback every 1.0 s).
    server_writeback_interval_s: "float | None" = None
    #: Dirty-memory cap per server before writes throttle to the disk
    #: (only meaningful with write-back enabled).
    server_writeback_max_dirty: int = 64 * 1024 * 1024

    def __post_init__(self) -> None:
        if self.n_compute_nodes < 1 or self.n_data_servers < 1:
            raise ValueError("need at least one compute node and one data server")

    # -- node-id layout -------------------------------------------------

    @property
    def n_nodes(self) -> int:
        return self.n_compute_nodes + self.n_data_servers + 1

    def compute_node_id(self, i: int) -> int:
        if not 0 <= i < self.n_compute_nodes:
            raise ValueError(f"compute node {i} out of range")
        return i

    def data_server_node_id(self, i: int) -> int:
        if not 0 <= i < self.n_data_servers:
            raise ValueError(f"data server {i} out of range")
        return self.n_compute_nodes + i

    @property
    def metadata_node_id(self) -> int:
        return self.n_compute_nodes + self.n_data_servers
