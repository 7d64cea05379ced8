"""Operation types emitted by workload rank streams.

``IoOp.segments`` is the flattened (offset, length) list an MPI derived
datatype (contig / vector / indexed) resolves to -- the form the ADIO
layer actually services.  ``predicted_segments`` models data-dependent
access: it is what a *pre-execution* would predict.  For ordinary
workloads it equals ``segments``; for data-dependent programs (the
paper's Table III adversary) it differs, producing mis-prefetches without
affecting the correctness of normal execution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from repro.extents import Segment

__all__ = ["BarrierOp", "ComputeOp", "IoOp", "Op", "Segment"]


@dataclass(frozen=True)
class ComputeOp:
    """CPU burn between I/O calls."""

    seconds: float

    def __post_init__(self) -> None:
        if self.seconds < 0:
            raise ValueError("compute time must be non-negative")


@dataclass(frozen=True)
class BarrierOp:
    """MPI_Barrier across the job."""


@dataclass(frozen=True)
class IoOp:
    """One MPI-IO call: a set of segments of one file, read or write.

    Whether a call is collective is the engine's choice, not the call's:
    the paper runs each benchmark "with or without collective I/O", so
    the ``collective`` strategy runs every call of a program through
    two-phase I/O (MPI_File_read_all etc.) and every other engine treats
    it as an independent strided call.  ``predicted_segments`` is what a
    pre-execution records for the call when it differs from what the
    call reads (a data-dependent access).
    """

    file_name: str
    op: str  # 'R' | 'W'
    segments: tuple[Segment, ...]
    predicted_segments: Optional[tuple[Segment, ...]] = None

    def __post_init__(self) -> None:
        if self.op not in ("R", "W"):
            raise ValueError(f"op must be 'R' or 'W', got {self.op!r}")
        if not self.segments:
            raise ValueError("IoOp needs at least one segment")
        for s in self.segments:
            if s.offset < 0 or s.length <= 0:
                raise ValueError(f"bad segment {s}")

    @property
    def total_bytes(self) -> int:
        return sum(s.length for s in self.segments)

    @property
    def prediction(self) -> tuple[Segment, ...]:
        """Segments a pre-execution would record for this call."""
        return self.predicted_segments if self.predicted_segments is not None else self.segments


Op = Union[ComputeOp, BarrierOp, IoOp]
