"""Engine base class and vanilla independent MPI-IO.

The engine is the ADIO dispatch point: every ``IoOp`` a rank executes
passes through ``do_io``.  This is exactly where the paper instruments
MPICH2 (ADIOI_PVFS2_ReadContig / ReadStrided / ...), and where DualPar's
engine later intercepts calls.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator

from repro.mpi.ops import IoOp
from repro.mpiio.datasieve import coalesce_segments
from repro.pfs.filesystem import PfsFile

if TYPE_CHECKING:  # pragma: no cover
    from repro.mpi.runtime import MpiJob, MpiProcess, MpiRuntime

__all__ = ["IoEngine", "IndependentEngine"]


class IoEngine:
    """Per-job I/O execution strategy."""

    name = "base"

    def __init__(self, runtime: "MpiRuntime", job: "MpiJob"):
        self.runtime = runtime
        self.job = job
        self.sim = runtime.sim

    # -- lifecycle hooks -------------------------------------------------

    def on_job_start(self) -> None:
        """Called once when the job's ranks are created."""

    def finalize_rank(self, proc: "MpiProcess") -> Generator:
        """Yielded from as each rank's stream drains (e.g. final flush)."""
        return
        yield  # pragma: no cover - makes this a generator

    def on_job_end(self) -> None:
        """Called once when every rank has finished."""

    # -- I/O dispatch ------------------------------------------------------

    def do_io(self, proc: "MpiProcess", op: IoOp) -> Generator:
        raise NotImplementedError

    # -- shared helpers ----------------------------------------------------

    def lookup_file(self, name: str) -> PfsFile:
        # Not charged network time: namespace lookup (DESIGN.md).
        return self.runtime.cluster.fs.lookup(name)

    def client_of(self, proc: "MpiProcess"):
        return self.runtime.cluster.clients[proc.node_id]


class IndependentEngine(IoEngine):
    """Vanilla MPI-IO: synchronous requests issued one at a time.

    "Without system-level prefetching ... a process issues its synchronous
    read requests one at a time and there is no overlap between
    computation and data access" -- Strategy 1, the evaluation baseline.

    A strided call is issued as its coalesced pieces, one at a time, with
    no read sieving: the paper's vanilla baseline on PVFS2.
    """

    name = "vanilla"

    def do_io(self, proc: "MpiProcess", op: IoOp) -> Generator:
        f = self.lookup_file(op.file_name)
        client = self.client_of(proc)
        for seg in coalesce_segments(op.segments, hole_threshold=0):
            yield from client.io(f, seg.offset, seg.length, op.op, proc.stream_id)
