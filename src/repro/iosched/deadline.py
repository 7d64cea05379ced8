"""Deadline elevator: sector-sorted batches with per-op expiry FIFOs.

Follows the Linux deadline scheduler's structure: two sorted queues (reads
and writes), two FIFO queues carrying deadlines (reads 500 ms, writes 5 s),
batched dispatch from the sorted order (``FIFO_BATCH`` units per batch),
jumping to the FIFO head when its deadline has expired, and a bias toward
reads (writes are serviced after ``WRITES_STARVED`` read batches).
"""

from __future__ import annotations

from collections import deque

from repro.iosched.base import Decision, IoScheduler
from repro.iosched.request import BlockRequest, IoUnit
from repro.iosched.squeue import SortedUnitQueue

__all__ = ["DeadlineScheduler"]

#: Linux deadline defaults: read and write expiry, units per sorted
#: batch, and read batches served before pending writes get one.
READ_EXPIRE_S = 0.5
WRITE_EXPIRE_S = 5.0
FIFO_BATCH = 16
WRITES_STARVED = 2


class DeadlineScheduler(IoScheduler):
    """Linux deadline elevator: sector-sorted batches, per-op expiry
    FIFOs, reads preferred with bounded write starvation."""

    def __init__(self) -> None:
        super().__init__()
        self._sorted = {"R": SortedUnitQueue(), "W": SortedUnitQueue()}
        # FIFO of (deadline, unit).  Entries whose unit is no longer queued
        # (dispatched, or absorbed by a merge) are skipped lazily.
        self._fifo: dict[str, deque[tuple[float, IoUnit]]] = {"R": deque(), "W": deque()}  # simlint: ignore[SL006] bounded by queued units (nr_requests analogue upstream)
        self._batch_left = 0
        self._batch_op = "R"
        self._starved = 0

    def add(self, req: BlockRequest, now: float) -> None:
        q = self._sorted[req.op]
        if q.add(req) == 1:
            # Genuinely new unit: give it a deadline entry.
            expire = READ_EXPIRE_S if req.op == "R" else WRITE_EXPIRE_S
            self._fifo[req.op].append((now + expire, q.added_unit(req.lbn)))
        self.n_merges = self._sorted["R"].n_merges + self._sorted["W"].n_merges

    def decide(self, now: float, head_lbn: int) -> Decision:
        nr, nw = len(self._sorted["R"]), len(self._sorted["W"])
        if nr == 0 and nw == 0:
            return None

        # Continue the current batch while quota and requests remain.
        if self._batch_left > 0 and len(self._sorted[self._batch_op]) > 0:
            unit = self._sorted[self._batch_op].pop_next(head_lbn)
            self._batch_left -= 1
            return unit

        # Pick the op for the next batch: reads preferred unless writes starve.
        if nr > 0 and (nw == 0 or self._starved < WRITES_STARVED):
            op = "R"
            if nw > 0:
                self._starved += 1
        else:
            op = "W"
            self._starved = 0
        if len(self._sorted[op]) == 0:
            op = "R" if op == "W" else "W"

        # Drop stale FIFO heads; an expired live head pre-empts sorted order.
        fifo = self._fifo[op]
        while fifo and not fifo[0][1].queued:
            fifo.popleft()
        self._batch_op = op
        self._batch_left = FIFO_BATCH - 1
        if fifo and fifo[0][0] <= now:
            _deadline, unit = fifo.popleft()
            self._sorted[op].remove(unit)
            return unit

        return self._sorted[op].pop_next(head_lbn)

    def __len__(self) -> int:
        return len(self._sorted["R"]) + len(self._sorted["W"])
