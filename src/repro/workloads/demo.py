"""The motivating synthetic program of Section II.

"In demo each process reads a number of noncontiguous data segments of a
file in each MPI-IO function call.  Specifically, we ran N = 8 processes
to read a file ... from its beginning to its end.  Each process,
identified by its rank, reads 16 data segments at offset k*N + myrank
(0 <= k < 16), respectively, in each call by using the derived Vector
datatype.  The size of the segment varies from 4 KB to 128 KB.  The
compute time in each process between consecutive I/O operations is
adjustable to generate workloads of different I/O intensity."

Per call ``c``, rank ``r`` therefore reads segments at segment-indices
``c*16*N + k*N + r`` for k in 0..15 -- collectively the calls sweep the
file front to back.
"""

from __future__ import annotations

from typing import Iterator

from repro.mpi.ops import ComputeOp, IoOp, Op
from repro.workloads.base import FileSpec, Workload

__all__ = ["Demo"]


class Demo(Workload):
    """The Section-II motivating synthetic: per call, a 16-block vector
    of noncontiguous segments sweeping the file front to back."""

    name = "demo"

    def __init__(
        self,
        file_name: str = "demo.dat",
        file_size: int = 64 * 1024 * 1024,
        segment_bytes: int = 4 * 1024,
        segments_per_call: int = 16,
        compute_per_call: float = 0.0,
        nprocs_hint: int = 8,
    ):
        if file_size % segment_bytes != 0:
            raise ValueError("file_size must be a multiple of segment_bytes")
        self.file_name = file_name
        self.file_size = file_size
        self.segment_bytes = segment_bytes
        self.segments_per_call = segments_per_call
        self.compute_per_call = compute_per_call
        self.nprocs_hint = nprocs_hint

    def files(self) -> list[FileSpec]:
        return [FileSpec(self.file_name, self.file_size)]

    def n_calls(self, size: int) -> int:
        total_segments = self.file_size // self.segment_bytes
        return total_segments // (self.segments_per_call * size)

    def ops(self, rank: int, size: int) -> Iterator[Op]:
        from repro.mpi.datatypes import VectorType

        seg = self.segment_bytes
        n = self.segments_per_call
        # "by using the derived Vector datatype": per call, n blocks of
        # one segment each, strided by the process count.
        vector = VectorType(count=n, blocklength=seg, stride=size * seg)
        for c in range(self.n_calls(size)):
            if self.compute_per_call > 0:
                yield ComputeOp(self.compute_per_call)
            base = (c * n * size + rank) * seg
            yield IoOp(
                file_name=self.file_name,
                op="R",
                segments=tuple(vector.flatten(base, 1)),
            )
