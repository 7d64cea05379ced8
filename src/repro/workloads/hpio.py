"""hpio (Northwestern University / Sandia National Laboratories).

Systematically evaluates I/O under regioned patterns controlled by
*region count*, *region spacing*, and *region size*.  Rank ``r`` accesses
region indices ``r, r+P, r+2P, ...``; region ``g`` starts at
``g * (region_size + spacing)``.  Spacing 0 reproduces the contiguous
configuration the paper uses (SV-A: "We use the benchmark to generate
contiguous data accesses"); non-zero spacing produces the noncontiguous
family.
"""

from __future__ import annotations

from typing import Iterator

from repro.mpi.ops import ComputeOp, IoOp, Op, Segment
from repro.workloads.base import FileSpec, Workload, normalize_op

__all__ = ["Hpio"]


class Hpio(Workload):
    """Northwestern/Sandia hpio: regioned access controlled by region
    count, size, and spacing."""

    name = "hpio"

    def __init__(
        self,
        file_name: str = "hpio.dat",
        region_count: int = 4096,
        region_bytes: int = 32 * 1024,
        region_spacing: int = 0,
        op: str = "R",
        compute_per_call: float = 0.0,
    ):
        if region_count <= 0 or region_bytes <= 0 or region_spacing < 0:
            raise ValueError("bad hpio geometry")
        self.file_name = file_name
        self.region_count = region_count
        self.region_bytes = region_bytes
        self.region_spacing = region_spacing
        self.op = normalize_op(op)
        self.compute_per_call = compute_per_call

    @property
    def file_size(self) -> int:
        pitch = self.region_bytes + self.region_spacing
        # Last region needs no trailing spacing.
        return self.region_count * pitch - self.region_spacing

    def files(self) -> list[FileSpec]:
        return [FileSpec(self.file_name, self.file_size)]

    def ops(self, rank: int, size: int) -> Iterator[Op]:
        pitch = self.region_bytes + self.region_spacing
        for g in range(rank, self.region_count, size):
            if self.compute_per_call > 0:
                yield ComputeOp(self.compute_per_call)
            yield IoOp(
                file_name=self.file_name,
                op=self.op,
                segments=(Segment(g * pitch, self.region_bytes),),
            )
