"""Scheduler interface and the decision protocol with the block layer.

A scheduler owns the queue of pending :class:`IoUnit` objects.  The block
layer's dispatch loop repeatedly asks ``decide(now, head_lbn)``:

- ``SchedDecision.serve(unit)`` -- service this unit now;
- ``SchedDecision.idle(seconds)`` -- the scheduler *chooses* to keep the
  disk idle briefly (CFQ/anticipatory idling), hoping a better request
  arrives; the loop re-asks after the window or on a new arrival;
- ``SchedDecision.empty()`` -- nothing queued; sleep until an arrival.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Optional

from repro.iosched.request import BlockRequest, IoUnit

__all__ = ["IoScheduler", "SchedDecision"]


@dataclass(frozen=True)
class SchedDecision:
    kind: str  # 'serve' | 'idle' | 'empty'
    unit: Optional[IoUnit] = None
    idle_s: float = 0.0

    @classmethod
    def serve(cls, unit: IoUnit) -> "SchedDecision":
        return cls(kind="serve", unit=unit)

    @classmethod
    def idle(cls, seconds: float) -> "SchedDecision":
        return cls(kind="idle", idle_s=seconds)

    @classmethod
    def empty(cls) -> "SchedDecision":
        return cls(kind="empty")


class IoScheduler(ABC):
    """Base class for elevator algorithms."""

    def __init__(self) -> None:
        self.n_merges = 0

    @abstractmethod
    def add(self, req: BlockRequest, now: float) -> None:
        """Queue a new request (merging it if possible)."""

    @abstractmethod
    def decide(self, now: float, head_lbn: int) -> SchedDecision:
        """Choose the next action for the dispatch loop."""

    @abstractmethod
    def __len__(self) -> int:
        """Number of queued units (not yet dispatched)."""

    def on_complete(self, unit: IoUnit, now: float) -> None:
        """Completion notification (think-time heuristics hook)."""
