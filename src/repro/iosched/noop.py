"""NOOP elevator: FIFO dispatch with last-unit back merging only."""

from __future__ import annotations

from collections import deque

from repro.iosched.base import Decision, IoScheduler
from repro.iosched.request import BlockRequest, IoUnit

__all__ = ["NoopScheduler"]


class NoopScheduler(IoScheduler):
    """Service in arrival order; merge only into the most recent unit.

    This is the floor for service quality: it preserves whatever order the
    upper layers produced -- which is exactly why DualPar-style pre-sorted
    issuance still performs well even under NOOP, while unsorted trickle
    arrival performs terribly.
    """

    def __init__(self) -> None:
        super().__init__()
        self._fifo: deque[IoUnit] = deque()  # simlint: ignore[SL006] bounded by queued units (nr_requests analogue upstream)

    def add(self, req: BlockRequest, now: float) -> None:
        if self._fifo:
            last = self._fifo[-1]
            if last.can_back_merge(req):
                last.back_merge(req)
                self.n_merges += 1
                return
            if last.can_front_merge(req):
                last.front_merge(req)
                self.n_merges += 1
                return
        self._fifo.append(IoUnit.from_request(req))

    def decide(self, now: float, head_lbn: int) -> Decision:
        if not self._fifo:
            return None
        return self._fifo.popleft()

    def __len__(self) -> int:
        return len(self._fifo)
