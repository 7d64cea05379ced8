"""Anticipatory elevator (simplified Linux AS).

One global sorted queue served in C-LOOK order, plus the anticipation
heuristic: after completing a read for stream S, if S has no further
request queued, hold the disk idle for ``ANTIC_EXPIRE_S`` before moving to
another stream's (possibly distant) request -- synchronous readers almost
always issue a nearby follow-up just after their previous read completes
("deceptive idleness", Iyer & Druschel SOSP'01, cited by the paper).
"""

from __future__ import annotations

from repro.iosched.base import Decision, IoScheduler
from repro.iosched.request import BlockRequest
from repro.iosched.squeue import SortedUnitQueue

__all__ = ["AnticipatoryScheduler"]

#: Anticipation window after a read (Linux AS ``antic_expire``).
ANTIC_EXPIRE_S = 0.006


class AnticipatoryScheduler(IoScheduler):
    """Simplified Linux AS: C-LOOK over one queue plus a short
    anticipation window after each read for the same stream's follow-up."""

    def __init__(self) -> None:
        super().__init__()
        self._queue = SortedUnitQueue()
        self._last_stream: int | None = None
        self._antic_deadline: float | None = None

    def add(self, req: BlockRequest, now: float) -> None:
        self._queue.add(req)
        self.n_merges = self._queue.n_merges
        if req.stream_id == self._last_stream:
            # The anticipated request arrived; cancel the wait.
            self._antic_deadline = None

    def _stream_has_request(self, stream_id: int | None) -> bool:
        if stream_id is None:
            return False
        return any(
            any(p.stream_id == stream_id for p in unit.parts) for unit in self._queue.units
        )

    def decide(self, now: float, head_lbn: int) -> Decision:
        if len(self._queue) == 0:
            if self._antic_deadline is not None and now < self._antic_deadline:
                return self._antic_deadline - now
            self._antic_deadline = None
            return None

        if (
            self._last_stream is not None
            and not self._stream_has_request(self._last_stream)
        ):
            # Anticipate a follow-up from the last-served reader.
            if self._antic_deadline is None:
                self._antic_deadline = now + ANTIC_EXPIRE_S
            if now < self._antic_deadline:
                return self._antic_deadline - now
        self._antic_deadline = None

        unit = self._queue.pop_next(head_lbn)
        if unit.op == "R" and unit.parts:
            self._last_stream = unit.parts[-1].stream_id
        else:
            self._last_stream = None
        return unit

    def __len__(self) -> int:
        return len(self._queue)
