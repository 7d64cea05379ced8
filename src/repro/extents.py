"""Byte ranges: the one merge of the storage stack.

DualPar's CRM packs requests "in ascending order of the requested data's
offsets" and absorbs "small numbers of holes between the requests"
(paper SIV-D); ROMIO's data sieving reads one covering extent instead
of many small pieces.  Both are :func:`coalesce_segments`, a batch
merge of a segment list.  The data server's page cache and write-back
buffer keep the same merge incrementally, one range at a time, in an
:class:`ExtentMap` per file object.

This module imports nothing from the rest of the package, so the PFS,
the global cache and the MPI-IO layer all build on it.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import NamedTuple

__all__ = ["ExtentMap", "Segment", "coalesce_counting", "coalesce_segments"]

_INF = float("inf")


class Segment(NamedTuple):
    """One contiguous byte range of a file."""

    offset: int
    length: int

    @property
    def end(self) -> int:
        return self.offset + self.length


def coalesce_segments(
    segments: list[Segment] | tuple[Segment, ...],
    hole_threshold: int = 0,
) -> list[Segment]:
    """Sort, merge overlapping/adjacent segments, and bridge small holes.

    Holes of at most ``hole_threshold`` bytes between consecutive segments
    are absorbed into the covering segment.
    """
    if hole_threshold < 0:
        raise ValueError("hole_threshold must be non-negative")
    if not segments:
        return []
    ordered = sorted(segments)  # Segment orders by (offset, length)
    out: list[Segment] = []
    cur_start, cur_end = ordered[0].offset, ordered[0].end
    for s, n in ordered[1:]:
        if s <= cur_end + hole_threshold:
            if s + n > cur_end:
                cur_end = s + n
        else:
            out.append(Segment(cur_start, cur_end - cur_start))
            cur_start, cur_end = s, s + n
    out.append(Segment(cur_start, cur_end - cur_start))
    return out


def coalesce_counting(
    segments: list[Segment] | tuple[Segment, ...], hole_threshold: int
) -> tuple[list[Segment], int]:
    """``coalesce_segments(segments, hole_threshold)`` and the bytes
    ``coalesce_segments(segments, 0)`` covers (the requested bytes, each
    overlap counted once), from one sort."""
    if hole_threshold < 0:
        raise ValueError("hole_threshold must be non-negative")
    if not segments:
        return [], 0
    ordered = sorted(segments)
    out: list[Segment] = []
    requested = 0
    cur_start, cur_end = ordered[0].offset, ordered[0].end
    x_start, x_end = cur_start, cur_end
    for s, n in ordered[1:]:
        e = s + n
        if s <= x_end:
            if e > x_end:
                x_end = e
        else:
            requested += x_end - x_start
            x_start, x_end = s, e
        if s <= cur_end + hole_threshold:
            if e > cur_end:
                cur_end = e
        else:
            out.append(Segment(cur_start, cur_end - cur_start))
            cur_start, cur_end = s, e
    out.append(Segment(cur_start, cur_end - cur_start))
    return out, requested + x_end - x_start


class ExtentMap(list[tuple[int, int]]):
    """The byte extents held of one file object: a sorted list of
    disjoint, non-adjacent ``(start, end)`` tuples, changed only through
    :meth:`add` and :meth:`subtract`."""

    __slots__ = ()

    def add(self, start: int, end: int) -> tuple[int, int, int]:
        """Merge the non-empty ``[start, end)`` in, absorbing every
        extent it overlaps or touches; return the merged extent's start
        and end and the bytes newly held."""
        idx = bisect_left(self, (start, start))
        lo = idx
        while lo > 0 and self[lo - 1][1] >= start:
            lo -= 1
        hi = idx
        n = len(self)
        while hi < n and self[hi][0] <= end:
            hi += 1
        removed = 0
        for a, b in self[lo:hi]:
            removed += b - a
            if a < start:
                start = a
            if b > end:
                end = b
        self[lo:hi] = [(start, end)]
        return start, end, end - start - removed

    def covers(self, start: int, end: int) -> bool:
        """Is ``[start, end)`` held in full?"""
        if end <= start:
            return True
        idx = bisect_right(self, (start, _INF)) - 1
        return idx >= 0 and end <= self[idx][1]

    def subtract(self, start: int, end: int) -> int:
        """Drop ``[start, end)``; return the bytes that were held."""
        if end <= start:
            return 0
        lo = bisect_right(self, (start, _INF)) - 1
        if lo < 0 or self[lo][1] <= start:
            lo += 1
        hi = lo
        n = len(self)
        removed = 0
        keep: list[tuple[int, int]] = []
        while hi < n and self[hi][0] < end:
            a, b = self[hi]
            removed += min(b, end) - max(a, start)
            if a < start:
                keep.append((a, start))
            if b > end:
                keep.append((end, b))
            hi += 1
        self[lo:hi] = keep
        return removed
