"""Scheduler interface and the decision protocol with the block layer.

A scheduler owns the queue of pending :class:`IoUnit` objects.  The block
layer's dispatch loop repeatedly asks ``decide(now, head_lbn)``, which
returns one of:

- an :class:`IoUnit` -- service this unit now;
- a ``float`` number of seconds -- the scheduler *chooses* to keep the
  disk idle briefly (CFQ/anticipatory idling), hoping a better request
  arrives; the loop re-asks after the window or on a new arrival;
- ``None`` -- nothing queued; sleep until an arrival.

Plain values rather than a decision object: the loop asks once per
dispatched unit, hundreds of thousands of times in a paper cell.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Optional, Union

from repro.iosched.request import BlockRequest, IoUnit

__all__ = ["Decision", "IoScheduler"]

#: What :meth:`IoScheduler.decide` returns: a unit to serve, seconds to
#: idle, or None when nothing is queued.
Decision = Optional[Union[IoUnit, float]]


class IoScheduler(ABC):
    """Base class for elevator algorithms."""

    def __init__(self) -> None:
        self.n_merges = 0

    @abstractmethod
    def add(self, req: BlockRequest, now: float) -> None:
        """Queue a new request (merging it if possible)."""

    @abstractmethod
    def decide(self, now: float, head_lbn: int) -> Decision:
        """Choose the next action for the dispatch loop (module docstring)."""

    @abstractmethod
    def __len__(self) -> int:
        """Number of queued units (not yet dispatched)."""

    def on_complete(self, unit: IoUnit, now: float) -> None:
        """Completion notification (think-time heuristics hook)."""
