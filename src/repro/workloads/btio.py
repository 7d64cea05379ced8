"""NAS BT-IO: periodic checkpointing of a block-tridiagonal solution.

BT's multi-partition decomposition scatters each rank's cells through the
solution file: per checkpoint a rank writes many tiny noncontiguous
pieces whose size *shrinks* as the process count grows (the paper reports
4-byte requests at 256 processes -- "too small for the disks to be
efficiently used").  With collective I/O each checkpoint moves a fixed
total volume; without it the tiny pieces go to the servers directly.

Model: a solution array of ``total_bytes`` is written over ``n_steps``
checkpoints; at each checkpoint rank ``r`` writes its cells -- segments
of ``cell_bytes(P) = cell_scale // P`` bytes at stride ``P * cell`` --
then optionally reads the file back at the end (BT-IO's verification
phase).
"""

from __future__ import annotations

from typing import Iterator

from repro.mpi.ops import ComputeOp, IoOp, Op, Segment
from repro.workloads.base import FileSpec, Workload, normalize_op

__all__ = ["Btio"]


class Btio(Workload):
    """NAS BT-IO checkpointing: tiny scattered per-rank cells whose size
    shrinks with the process count; written per timestep."""

    name = "btio"

    def __init__(
        self,
        file_name: str = "btio.dat",
        total_bytes: int = 32 * 1024 * 1024,
        n_steps: int = 4,
        cell_scale: int = 4096,
        op: str = "W",
        compute_per_step: float = 0.001,
        segments_per_call: int = 64,
        verify_read: bool = False,
    ):
        if total_bytes % n_steps != 0:
            raise ValueError("total_bytes must divide evenly into steps")
        self.file_name = file_name
        self.total_bytes = total_bytes
        self.n_steps = n_steps
        self.cell_scale = cell_scale
        self.op = normalize_op(op)
        self.compute_per_step = compute_per_step
        self.segments_per_call = segments_per_call
        self.verify_read = verify_read

    def files(self) -> list[FileSpec]:
        return [FileSpec(self.file_name, self.total_bytes)]

    def cell_bytes(self, size: int) -> int:
        return max(self.cell_scale // size, 4)

    def ops(self, rank: int, size: int) -> Iterator[Op]:
        cell = self.cell_bytes(size)
        step_bytes = self.total_bytes // self.n_steps
        stride = size * cell
        cells_per_rank_step = step_bytes // stride
        for step in range(self.n_steps):
            if self.compute_per_step > 0:
                yield ComputeOp(self.compute_per_step)
            base = step * step_bytes + rank * cell
            # Emit the step's cells in calls of segments_per_call pieces
            # (one MPI-IO call writes one derived-datatype view slice).
            for start in range(0, cells_per_rank_step, self.segments_per_call):
                take = min(self.segments_per_call, cells_per_rank_step - start)
                segments = tuple(
                    Segment(base + (start + i) * stride, cell) for i in range(take)
                )
                yield IoOp(
                    file_name=self.file_name,
                    op=self.op,
                    segments=segments,
                )
        if self.verify_read:
            cell = self.cell_bytes(size)
            for start in range(0, cells_per_rank_step, self.segments_per_call):
                take = min(self.segments_per_call, cells_per_rank_step - start)
                segments = tuple(
                    Segment(rank * cell + (start + i) * stride, cell)
                    for i in range(take)
                )
                yield IoOp(
                    file_name=self.file_name,
                    op="R",
                    segments=segments,
                )
