"""ior-mpi-io (ASCI Purple suite, LLNL).

"Each MPI process is responsible for reading its own 1/64 of a 16 GB
file.  Each process continuously issues sequential requests, each for a
32 KB segment.  The processes' requests ... are at the same relative
offset in each process's access scope ... The program's access pattern
presented to the storage system is random."
"""

from __future__ import annotations

from typing import Iterator

from repro.mpi.ops import ComputeOp, IoOp, Op, Segment
from repro.workloads.base import FileSpec, Workload, normalize_op

__all__ = ["IorMpiIo"]


class IorMpiIo(Workload):
    """LLNL ior-mpi-io: each rank streams its own 1/P of the file;
    random across ranks, sequential within each scope."""

    name = "ior-mpi-io"

    def __init__(
        self,
        file_name: str = "ior.dat",
        file_size: int = 128 * 1024 * 1024,
        request_bytes: int = 32 * 1024,
        op: str = "R",
        compute_per_call: float = 0.0,
    ):
        self.file_name = file_name
        self.file_size = file_size
        self.request_bytes = request_bytes
        self.op = normalize_op(op)
        self.compute_per_call = compute_per_call

    def files(self) -> list[FileSpec]:
        return [FileSpec(self.file_name, self.file_size)]

    def validate(self, size: int) -> None:
        scope = self.file_size // size
        if scope < self.request_bytes:
            raise ValueError("per-process scope smaller than one request")

    def ops(self, rank: int, size: int) -> Iterator[Op]:
        scope = self.file_size // size
        base = rank * scope
        n_requests = scope // self.request_bytes
        for k in range(n_requests):
            if self.compute_per_call > 0:
                yield ComputeOp(self.compute_per_call)
            yield IoOp(
                file_name=self.file_name,
                op=self.op,
                segments=(Segment(base + k * self.request_bytes, self.request_bytes),),
            )
