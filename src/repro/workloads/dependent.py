"""The Table-III adversary: reads whose addresses depend on read data.

"we wrote an MPI program that reads 2GB data, and the requested data
addresses depend on the data read in the previous I/O call.  Because of
the existence of dependency, all data loaded into the cache are
mis-prefetched ones."

The *actual* addresses follow a pointer-chasing permutation a ghost
cannot know; the *predicted* addresses (what a pre-execution records,
since the dependency data is not yet available) are simply the next
sequential block -- always wrong by construction.
"""

from __future__ import annotations

from typing import Iterator

from repro.mpi.ops import ComputeOp, IoOp, Op, Segment
from repro.workloads.base import FileSpec, Workload

__all__ = ["DependentReads"]


class DependentReads(Workload):
    """Table-III adversary: actual addresses follow an unpredictable
    pointer chain; predictions always resolve into never-read data."""

    name = "dependent-reads"

    def __init__(
        self,
        file_name: str = "dependent.dat",
        file_size: int = 32 * 1024 * 1024,
        request_bytes: int = 64 * 1024,
        compute_per_call: float = 0.0,
        seed: int = 7,
    ):
        if file_size % request_bytes != 0:
            raise ValueError("file_size must be a multiple of request_bytes")
        self.file_name = file_name
        self.file_size = file_size
        self.request_bytes = request_bytes
        self.compute_per_call = compute_per_call
        self.seed = seed

    def files(self) -> list[FileSpec]:
        return [FileSpec(self.file_name, self.file_size)]

    def ops(self, rank: int, size: int) -> Iterator[Op]:
        import numpy as np

        # The data actually read lives in the first half of the file; the
        # stale pointer values a pre-execution sees always resolve into the
        # second half, so no prefetched chunk is ever consumed.
        n_blocks = self.file_size // self.request_bytes
        half = n_blocks // 2
        mine = np.arange(rank, half, size)
        rng = np.random.default_rng(self.seed + rank)
        rng.shuffle(mine)  # the pointer chain: unpredictable order
        for b in mine:
            if self.compute_per_call > 0:
                yield ComputeOp(self.compute_per_call)
            actual = Segment(int(b) * self.request_bytes, self.request_bytes)
            predicted = Segment((int(b) + half) * self.request_bytes, self.request_bytes)
            yield IoOp(
                file_name=self.file_name,
                op="R",
                segments=(actual,),
                predicted_segments=(predicted,),
            )
