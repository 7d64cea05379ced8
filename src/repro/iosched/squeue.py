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

    def __init__(self, max_sectors: int):
        self.max_sectors = max_sectors
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

    def add(self, req: BlockRequest) -> None:
        """Insert, back/front-merging into a neighbour when contiguous."""
        idx = bisect.bisect_left(self._keys, req.lbn)
        if idx > 0 and self._units[idx - 1].can_back_merge(req, self.max_sectors):
            self._units[idx - 1].back_merge(req)
            self.n_merges += 1
            self._coalesce_at(idx - 1)
            return
        if idx < len(self._units) and self._units[idx].can_front_merge(req, self.max_sectors):
            unit = self._units[idx]
            unit.front_merge(req)
            self._keys[idx] = unit.lbn
            self.n_merges += 1
            self._coalesce_at(idx)
            return
        unit = IoUnit.from_request(req)
        self._units.insert(idx, unit)
        self._keys.insert(idx, unit.lbn)

    def _coalesce_at(self, idx: int) -> None:
        """After a merge grew unit ``idx``, it may now abut its successor."""
        if idx + 1 >= len(self._units):
            return
        a, b = self._units[idx], self._units[idx + 1]
        if a.op == b.op and a.end == b.lbn and a.nsectors + b.nsectors <= self.max_sectors:
            a.nsectors += b.nsectors
            a.parts.extend(b.parts)
            b.queued = False
            del self._units[idx + 1]
            del self._keys[idx + 1]
            self.n_merges += 1

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
