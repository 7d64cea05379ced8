"""A sorted queue of IoUnits with O(log n) insertion and C-LOOK dispatch.

Maintains a parallel key list so ``bisect`` never has to rebuild keys --
DualPar floods servers with thousands of queued requests and the block
layer must stay out of the profile.
"""

from __future__ import annotations

import bisect
from typing import Optional

from repro.iosched.request import BlockRequest, IoUnit

__all__ = ["SortedUnitQueue"]


class SortedUnitQueue:
    """LBN-sorted unit queue with adjacent-merge on insert."""

    def __init__(self) -> None:
        self._units: list[IoUnit] = []
        self._keys: list[int] = []
        self.n_merges = 0

    def __len__(self) -> int:
        return len(self._units)

    def __iter__(self):
        return iter(self._units)

    @property
    def units(self) -> list[IoUnit]:
        return self._units

    def add(self, req: BlockRequest) -> int:
        """Insert, back/front-merging into a neighbour when contiguous.

        Returns the change in queued units: 1 for a new unit, 0 for a
        merge, -1 for a merge that also joined two units.  Each add makes
        ``1 - change`` merges, so a caller can keep both counts running."""
        units = self._units
        idx = bisect.bisect_left(self._keys, req.lbn)
        if idx > 0 and units[idx - 1].can_back_merge(req):
            units[idx - 1].back_merge(req)
            self.n_merges += 1
            return -self._coalesce_at(idx - 1)
        if idx < len(units) and units[idx].can_front_merge(req):
            unit = units[idx]
            unit.front_merge(req)
            self._keys[idx] = unit.lbn
            self.n_merges += 1
            return -self._coalesce_at(idx)
        unit = IoUnit.from_request(req)
        units.insert(idx, unit)
        self._keys.insert(idx, unit.lbn)
        return 1

    def _coalesce_at(self, idx: int) -> int:
        """After a merge grew unit ``idx``, it may now abut its successor:
        join them; returns the number of units joined away (0 or 1)."""
        if idx + 1 >= len(self._units):
            return 0
        a, b = self._units[idx], self._units[idx + 1]
        if a.can_back_merge(b):
            a.nsectors += b.nsectors
            a.parts.extend(b.parts)
            b.queued = False
            del self._units[idx + 1]
            del self._keys[idx + 1]
            self.n_merges += 1
            return 1
        return 0

    def added_unit(self, lbn: int) -> IoUnit:
        """The new unit an :meth:`add` of a request at ``lbn`` just queued
        (one that returned 1).  ``add`` inserts it ahead of any unit that
        shares its start sector, so it is the first unit starting there."""
        return self._units[bisect.bisect_left(self._keys, lbn)]

    def remove(self, unit: IoUnit) -> None:
        """Take a queued ``unit`` out of sorted order (the deadline
        elevator serving an expired FIFO head)."""
        idx = bisect.bisect_left(self._keys, unit.lbn)
        while self._units[idx] is not unit:  # units sharing a start sector
            idx += 1
        del self._units[idx]
        del self._keys[idx]
        unit.queued = False

    def pop_next(self, head_lbn: int) -> Optional[IoUnit]:
        """C-LOOK: next unit at or beyond the head, wrapping to the start."""
        if not self._units:
            return None
        idx = bisect.bisect_left(self._keys, head_lbn)
        if idx >= len(self._units):
            idx = 0
        unit = self._units.pop(idx)
        self._keys.pop(idx)
        unit.queued = False
        return unit
