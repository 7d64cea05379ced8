"""Block request and merged I/O unit types."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.sim import Event

__all__ = ["BlockRequest", "IoUnit", "MAX_SECTORS"]

#: Cap on one disk request: 1024 sectors = 512 KB, the common Linux
#: ``max_sectors_kb`` default of the era.  The block layer merges units
#: up to it and the data server splits its block I/O into pieces of it.
MAX_SECTORS = 1024


@dataclass
class BlockRequest:
    """One request as submitted to the block layer.

    ``stream_id`` identifies the issuing context (a PFS client / MPI
    process); CFQ uses it for per-process queueing and the stats use it to
    attribute service.
    """

    lbn: int
    nsectors: int
    op: str  # 'R' or 'W'
    stream_id: int
    submit_time: float
    completion: Event
    tag: Optional[object] = None  # opaque caller payload
    #: Readahead / writeback requests nobody synchronously waits on.
    #: CFQ gives them background treatment: no idling, yield to sync.
    is_async: bool = False
    #: Observability trace-context id (0 = untraced).  Propagated from the
    #: originating MPI I/O operation so a span at the disk can be tied back
    #: to the collective read that caused it.
    trace_id: int = 0

    @property
    def end(self) -> int:
        return self.lbn + self.nsectors

    def __post_init__(self) -> None:
        if self.nsectors <= 0:
            raise ValueError("nsectors must be positive")
        if self.op not in ("R", "W"):
            raise ValueError(f"op must be 'R' or 'W', got {self.op!r}")


@dataclass
class IoUnit:
    """A queued unit: one or more contiguous same-op requests merged.

    The disk services the unit as a single transfer; completion fires every
    constituent request's event.
    """

    lbn: int
    nsectors: int
    op: str
    parts: list[BlockRequest] = field(default_factory=list)
    #: True while the unit sits in a scheduler queue; cleared when it is
    #: dispatched or absorbed into a neighbour.  Lets FIFO side-lists detect
    #: stale entries in O(1).
    queued: bool = True

    @property
    def end(self) -> int:
        return self.lbn + self.nsectors

    def can_back_merge(self, req: "BlockRequest | IoUnit") -> bool:
        """Can ``req`` (a request, or a queued neighbour unit) be appended
        directly after this unit?"""
        return (
            req.op == self.op
            and req.lbn == self.end
            and self.nsectors + req.nsectors <= MAX_SECTORS
        )

    def can_front_merge(self, req: BlockRequest) -> bool:
        """Can ``req`` be prepended directly before this unit?"""
        return (
            req.op == self.op
            and req.end == self.lbn
            and self.nsectors + req.nsectors <= MAX_SECTORS
        )

    def back_merge(self, req: BlockRequest) -> None:
        self.nsectors += req.nsectors
        self.parts.append(req)

    def front_merge(self, req: BlockRequest) -> None:
        self.lbn = req.lbn
        self.nsectors += req.nsectors
        self.parts.insert(0, req)

    @classmethod
    def from_request(cls, req: BlockRequest) -> "IoUnit":
        return cls(lbn=req.lbn, nsectors=req.nsectors, op=req.op, parts=[req])
