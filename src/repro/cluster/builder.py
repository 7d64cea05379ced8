"""Build a runnable cluster from a spec."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.cluster.spec import ClusterSpec
from repro.disk.drive import DiskDrive
from repro.iosched import BlockLayer, make_scheduler
from repro.net.ethernet import Network
from repro.pfs.client import PfsClient
from repro.pfs.dataserver import DataServer, LocalityDaemon
from repro.pfs.filesystem import ExtentAllocator, FileSystem
from repro.pfs.layout import StripeLayout
from repro.sim import Simulator

if TYPE_CHECKING:  # pragma: no cover
    from repro.trace.blktrace import BlkTrace

__all__ = ["Cluster", "build_cluster"]


@dataclass
class Cluster:
    """Everything needed to run experiments against one simulated testbed."""

    sim: Simulator
    spec: ClusterSpec
    network: Network
    fs: FileSystem
    data_servers: list[DataServer]
    clients: list[PfsClient]
    locality_daemons: list[LocalityDaemon]
    traces: list[Optional[BlkTrace]] = field(default_factory=list)

    def total_bytes_served(self) -> int:
        return sum(ds.bytes_served for ds in self.data_servers)

    def mean_queue_depth(self) -> float:
        depths = [ds.block_layer.stats.mean_queue_depth for ds in self.data_servers]
        return sum(depths) / len(depths)


def build_cluster(spec: Optional[ClusterSpec] = None, observe=None) -> Cluster:
    """Instantiate a ready-to-run :class:`Cluster` from ``spec``
    (defaults to :class:`ClusterSpec`'s Darwin-like configuration).

    ``observe`` is an optional :class:`repro.obs.Observability` layer;
    when given, every component registers its instruments there.
    """

    spec = spec or ClusterSpec()
    sim = Simulator(observe=observe)
    network = Network(sim, spec.n_nodes, spec.network)
    layout = StripeLayout(spec.n_data_servers, spec.stripe_unit)

    data_servers: list[DataServer] = []
    daemons: list[LocalityDaemon] = []
    traces: list[Optional[BlkTrace]] = []
    allocators: list[ExtentAllocator] = []
    devices = []

    registry = sim.obs.registry if sim.obs is not None else None
    if spec.trace_disks:
        from repro.trace.blktrace import BlkTrace
    for i in range(spec.n_data_servers):
        trace = (
            BlkTrace(name=f"server{i}", registry=registry)
            if spec.trace_disks
            else None
        )
        # NB: BlkTrace defines __len__, so an empty trace is falsy --
        # compare against None explicitly.
        hook = trace.hook if trace is not None else None
        device = DiskDrive(sim, spec.disk, name=f"disk{i}", on_access=hook)
        devices.append(device)
        traces.append(trace)
        allocators.append(
            ExtentAllocator(device.total_sectors, placement=spec.placement)
        )

    fs = FileSystem(layout, allocators)

    for i, device in enumerate(devices):
        blk = BlockLayer(
            sim, device, make_scheduler(spec.io_scheduler), name=f"blk{i}"
        )
        ds = DataServer(
            sim,
            server_index=i,
            node_id=spec.data_server_node_id(i),
            network=network,
            fs=fs,
            device=device,
            block_layer=blk,
            writeback_interval_s=spec.server_writeback_interval_s,
            writeback_max_dirty=spec.server_writeback_max_dirty,
        )
        data_servers.append(ds)
        daemons.append(
            LocalityDaemon(sim, device, interval_s=spec.locality_interval_s, name=f"loc{i}")
        )

    clients = [
        PfsClient(
            sim,
            node_id=spec.compute_node_id(i),
            network=network,
            servers=data_servers,
            layout=layout,
        )
        for i in range(spec.n_compute_nodes)
    ]

    return Cluster(
        sim=sim,
        spec=spec,
        network=network,
        fs=fs,
        data_servers=data_servers,
        clients=clients,
        locality_daemons=daemons,
        traces=traces,
    )
