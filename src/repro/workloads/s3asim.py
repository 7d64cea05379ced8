"""S3asim: parallel sequence-similarity search simulation.

The benchmark fragments a sequence database; worker ranks answer queries
by scanning database fragments and writing variable-sized result records.
The paper configures 16 fragments, query/database sequence sizes between
a minimum and maximum, and scales load by query count; its requests "are
much larger than BTIO's", which is why DualPar's margin is smaller
(Fig 5).

Model: per query, each rank reads a run of sequence records (sizes drawn
deterministically from [min_seq, max_seq]) from its current fragment at a
sequentially advancing offset, computes the alignment score, and appends
a result record to the shared output file in its own result region.
"""

from __future__ import annotations

from typing import Iterator

from repro.mpi.ops import ComputeOp, IoOp, Op, Segment
from repro.workloads.base import FileSpec, Workload

__all__ = ["S3asim"]


class S3asim(Workload):
    """Sequence-similarity search: per query, ranks read database
    fragments and append result records; load scales with query count."""

    name = "s3asim"

    def __init__(
        self,
        db_file: str = "s3asim-db.dat",
        out_file: str = "s3asim-out.dat",
        n_fragments: int = 16,
        n_queries: int = 16,
        db_bytes: int = 64 * 1024 * 1024,
        min_seq_bytes: int = 64 * 1024,
        max_seq_bytes: int = 512 * 1024,
        result_bytes: int = 64 * 1024,
        compute_per_query: float = 0.002,
        out_region_bytes: int = 4 * 1024 * 1024,
        seed: int = 99,
    ):
        if n_fragments <= 0 or n_queries <= 0:
            raise ValueError("need positive fragments/queries")
        if not 0 < min_seq_bytes <= max_seq_bytes:
            raise ValueError("bad sequence size range")
        self.db_file = db_file
        self.out_file = out_file
        self.n_fragments = n_fragments
        self.n_queries = n_queries
        self.db_bytes = db_bytes
        self.min_seq_bytes = min_seq_bytes
        self.max_seq_bytes = max_seq_bytes
        self.result_bytes = result_bytes
        self.compute_per_query = compute_per_query
        self.out_region_bytes = out_region_bytes
        self.seed = seed
        self._max_ranks = 512

    def files(self) -> list[FileSpec]:
        return [
            FileSpec(self.db_file, self.db_bytes),
            FileSpec(self.out_file, self.out_region_bytes * self._max_ranks),
        ]

    def ops(self, rank: int, size: int) -> Iterator[Op]:
        import numpy as np

        rng = np.random.default_rng(self.seed + rank * 7919)
        frag_bytes = self.db_bytes // self.n_fragments
        out_base = rank * self.out_region_bytes
        out_pos = 0
        read_pos = 0
        for q in range(self.n_queries):
            frag = (q * size + rank) % self.n_fragments
            frag_base = frag * frag_bytes
            # Scan a run of sequences from the fragment.
            seq_len = int(rng.integers(self.min_seq_bytes, self.max_seq_bytes + 1))
            seq_len = min(seq_len, frag_bytes)
            offset = frag_base + read_pos % max(frag_bytes - seq_len, 1)
            read_pos += seq_len
            yield IoOp(
                file_name=self.db_file,
                op="R",
                segments=(Segment(offset, seq_len),),
            )
            if self.compute_per_query > 0:
                yield ComputeOp(self.compute_per_query)
            # Append the result record.
            res = min(self.result_bytes, self.out_region_bytes - out_pos)
            if res > 0:
                yield IoOp(
                    file_name=self.out_file,
                    op="W",
                    segments=(Segment(out_base + out_pos, res),),
                )
                out_pos += res
