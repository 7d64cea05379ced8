"""noncontig (Argonne / Parallel I/O Benchmarking Consortium).

"If we consider the file to be a two-dimensional array, there are
[nprocs] columns ... Each process reads a column of the array, starting
at row 0 of its designated column.  In each row of a column there are
elmtcount elements of MPI_INT, so the width of a column is
elmtcount * sizeof(int).  If collective I/O is used, in each call the
total amount of data read by the processes is fixed, which is 4 MB in
our experiments."

Rank ``r``'s call ``c`` therefore reads ``rows_per_call`` segments of
``elmtcount*4`` bytes at stride ``ncols*elmtcount*4``.
"""

from __future__ import annotations

from typing import Iterator

from repro.mpi.ops import ComputeOp, IoOp, Op
from repro.workloads.base import FileSpec, Workload, normalize_op

__all__ = ["Noncontig"]


class Noncontig(Workload):
    """ANL noncontig: each rank reads one column of a 2-D array via a
    vector datatype; collective or independent."""

    name = "noncontig"

    def __init__(
        self,
        file_name: str = "noncontig.dat",
        elmtcount: int = 128,
        n_rows: int = 4096,
        bytes_per_call: int = 4 * 1024 * 1024,
        op: str = "R",
        compute_per_call: float = 0.0,
    ):
        if elmtcount <= 0 or n_rows <= 0:
            raise ValueError("bad noncontig geometry")
        self.file_name = file_name
        self.elmtcount = elmtcount
        self.n_rows = n_rows
        self.bytes_per_call = bytes_per_call
        self.op = normalize_op(op)
        self.compute_per_call = compute_per_call

    @property
    def column_width(self) -> int:
        return self.elmtcount * 4  # MPI_INT

    def file_size_for(self, size: int) -> int:
        return self.n_rows * size * self.column_width

    def files(self) -> list[FileSpec]:
        # The file must cover the widest plausible run; the runner passes
        # nprocs via validate/ops, so size the file generously here and
        # let ops() stay within n_rows * ncols.
        return [FileSpec(self.file_name, self.file_size_for(self._ncols_hint))]

    _ncols_hint: int = 64

    def with_ncols_hint(self, ncols: int) -> "Noncontig":
        self._ncols_hint = ncols
        return self

    def validate(self, size: int) -> None:
        if size > self._ncols_hint:
            raise ValueError(
                f"noncontig file sized for {self._ncols_hint} columns, got {size} ranks"
            )

    def ops(self, rank: int, size: int) -> Iterator[Op]:
        from repro.mpi.datatypes import VectorType

        width = self.column_width
        row_bytes = size * width
        rows_per_call = max(self.bytes_per_call // (size * width), 1)
        row = 0
        while row < self.n_rows:
            take = min(rows_per_call, self.n_rows - row)
            if self.compute_per_call > 0:
                yield ComputeOp(self.compute_per_call)
            # The benchmark's vector-derived datatype: `take` rows of one
            # column cell, strided by the full row.
            vector = VectorType(count=take, blocklength=width, stride=row_bytes)
            yield IoOp(
                file_name=self.file_name,
                op=self.op,
                segments=tuple(vector.flatten(row * row_bytes + rank * width, 1)),
            )
            row += take
