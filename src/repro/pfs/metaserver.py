"""Metadata server: namespace RPCs.

Open/create/stat are round-trips to the metadata node (costed over the
network); data transfers never touch it.  DualPar's EMC daemon is *hosted*
on this node (see :mod:`repro.core.emc`) because mode decisions are made
per program, not per process -- the paper places the decision maker here
for the same reason.
"""

from __future__ import annotations

from typing import Generator

from repro.net.ethernet import Network
from repro.pfs.filesystem import FileSystem, PfsFile
from repro.sim import Simulator

__all__ = ["MetadataServer"]

#: CPU cost of one metadata operation.
METADATA_OP_CPU_S = 50e-6
#: Size of a metadata RPC message.
METADATA_MSG_BYTES = 256


class MetadataServer:
    """The PVFS2 metadata server: namespace RPCs over the network; the
    node that hosts DualPar's EMC daemon."""

    def __init__(self, sim: Simulator, node_id: int, network: Network, fs: FileSystem):
        self.sim = sim
        self.node_id = node_id
        self.network = network
        self.fs = fs
        self.n_ops = 0
        #: Data-server health map, installed by the fault injector (None
        #: nominally).  Clients learn server liveness through metadata,
        #: exactly as they learn the server list.
        self.health = None

    def rpc_create(self, client_node: int, name: str, size: int) -> Generator:
        """Create a file; yields until the RPC round-trip completes."""
        yield from self.network.transfer(client_node, self.node_id, METADATA_MSG_BYTES)
        yield self.sim.timeout(METADATA_OP_CPU_S)
        f = self.fs.create(name, size)
        self.n_ops += 1
        yield from self.network.transfer(self.node_id, client_node, METADATA_MSG_BYTES)
        return f

    def rpc_open(self, client_node: int, name: str) -> Generator:
        """Look up a file; yields until the RPC round-trip completes."""
        yield from self.network.transfer(client_node, self.node_id, METADATA_MSG_BYTES)
        yield self.sim.timeout(METADATA_OP_CPU_S)
        f = self.fs.lookup(name)
        self.n_ops += 1
        yield from self.network.transfer(self.node_id, client_node, METADATA_MSG_BYTES)
        return f
