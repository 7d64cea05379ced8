"""Configurable synthetic patterns (test/example building block)."""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from repro.mpi.ops import BarrierOp, ComputeOp, IoOp, Op, Segment
from repro.workloads.base import FileSpec, Workload, normalize_op

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np

__all__ = ["SyntheticPattern"]


class SyntheticPattern(Workload):
    """A single-file pattern: sequential / strided / random.

    Parameters
    ----------
    pattern:
        'sequential' -- rank r reads blocks r, r+P, r+2P, ... (globally
        sequential when interleaved);
        'partitioned' -- rank r streams its own contiguous 1/P;
        'random' -- seeded random block order per rank.
    op:
        'R' or 'W'.
    compute_per_call:
        Seconds of computation between I/O calls.
    barrier_every:
        Insert a barrier after every N calls (0 = never).
    """

    def __init__(
        self,
        file_name: str = "synthetic.dat",
        file_size: int = 16 * 1024 * 1024,
        request_bytes: int = 16 * 1024,
        pattern: str = "sequential",
        op: str = "R",
        compute_per_call: float = 0.0,
        barrier_every: int = 0,
        seed: int = 1234,
    ):
        if pattern not in ("sequential", "partitioned", "random"):
            raise ValueError(f"unknown pattern {pattern!r}")
        if file_size % request_bytes != 0:
            raise ValueError("file_size must be a multiple of request_bytes")
        self.file_name = file_name
        self.file_size = file_size
        self.request_bytes = request_bytes
        self.pattern = pattern
        self.op = normalize_op(op)
        self.compute_per_call = compute_per_call
        self.barrier_every = barrier_every
        self.seed = seed
        self.name = f"synthetic-{pattern}"

    def files(self) -> list[FileSpec]:
        return [FileSpec(self.file_name, self.file_size)]

    def _block_order(self, rank: int, size: int) -> np.ndarray:
        import numpy as np

        n_blocks = self.file_size // self.request_bytes
        if self.pattern == "sequential":
            return np.arange(rank, n_blocks, size)
        if self.pattern == "partitioned":
            per = n_blocks // size
            return np.arange(rank * per, (rank + 1) * per)
        rng = np.random.default_rng(self.seed + rank)
        mine = np.arange(rank, n_blocks, size)
        rng.shuffle(mine)
        return mine

    def ops(self, rank: int, size: int) -> Iterator[Op]:
        blocks = self._block_order(rank, size)
        for i, b in enumerate(blocks):
            if self.compute_per_call > 0:
                yield ComputeOp(self.compute_per_call)
            yield IoOp(
                file_name=self.file_name,
                op=self.op,
                segments=(Segment(int(b) * self.request_bytes, self.request_bytes),),
            )
            if self.barrier_every and (i + 1) % self.barrier_every == 0:
                yield BarrierOp()
