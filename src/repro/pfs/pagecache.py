"""Server-side page cache with Linux-style sequential readahead.

The paper's baseline relies on it implicitly: "Without system-level
prefetching triggered by fully sequential data access, a process issues
its synchronous read requests one at a time" -- i.e. when accesses ARE
sequential at a data server, the kernel's readahead turns them into large
disk reads and absorbs rotational latency.  Without this mechanism every
16 KB request would pay ~half a revolution and vanilla MPI-IO would be
absurdly slow, which it is not (115 MB/s in Fig 3).

Model (per served file object):

- a *readahead state*: the end offset of the last read and the current
  window; a read starting within ``slack`` of the last end is sequential
  and doubles the window (``ra_start`` up to ``ra_max``), anything else
  resets it;
- a *cached-extent* map (:class:`~repro.extents.ExtentMap`) per file:
  byte intervals already resident; fully-cached reads skip the disk.

Capacity is a FIFO over inserted extents (real page reclaim is LRU over
pages; at our granularity FIFO-over-extents is equivalent in effect).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.extents import ExtentMap

__all__ = ["ServerPageCache"]


@dataclass
class _RaState:
    last_end: int = -1
    window: int = 0


class ServerPageCache:
    """Per-server page cache: resident-extent map plus per-(file, context)
    readahead state with hit-triggered async windows."""

    def __init__(
        self,
        capacity_bytes: int = 256 * 1024 * 1024,
        ra_start: int = 32 * 1024,
        ra_max: int = 128 * 1024,
        slack: int = 48 * 1024,
    ):
        if capacity_bytes <= 0:
            raise ValueError("capacity must be positive")
        self.capacity_bytes = capacity_bytes
        self.ra_start = ra_start
        self.ra_max = ra_max
        self.slack = slack
        #: file -> resident [start, end) extents
        self._extents: dict[str, ExtentMap] = {}
        #: readahead state is per (file, io context) -- the kernel keeps it
        #: per struct file, i.e. per server I/O thread, so interleaved
        #: access from many contexts thrashes detection exactly as it does
        #: on a real data server.
        self._ra: dict[tuple[str, int], _RaState] = {}
        self._fifo: deque[tuple[str, int, int]] = deque()  # simlint: ignore[SL006] eviction order over resident pages; bounded by capacity_bytes
        self.resident_bytes = 0
        self.n_hits = 0
        self.n_misses = 0

    # --------------------------------------------------------------- lookup

    def contains(self, file_name: str, offset: int, length: int) -> bool:
        """Is [offset, offset+length) fully resident?"""
        ivs = self._extents.get(file_name)
        if ivs is None:
            return length <= 0
        return ivs.covers(offset, offset + length)

    def record_access(
        self, file_name: str, offset: int, length: int, context: int = 0
    ) -> int:
        """Update readahead state; return extra bytes to read ahead.

        Call on a cache MISS before issuing the disk read.  The caller
        should read ``[offset, offset+length+extra)`` (clipped to the
        object) and then :meth:`insert` what it read.
        """
        ra_key = (file_name, context)
        st = self._ra.get(ra_key)
        if st is None:
            st = _RaState()
            self._ra[ra_key] = st
        gap = offset - st.last_end if st.last_end >= 0 else None
        if gap is not None and -self.slack <= gap <= self.slack:
            st.window = min(max(st.window * 2, self.ra_start), self.ra_max)
        else:
            st.window = 0
        st.last_end = offset + length + st.window
        return st.window

    def on_hit(self, file_name: str, offset: int, length: int, context: int = 0):
        """Hit-path readahead trigger (Linux's PG_readahead marker).

        When a sequential reader consumes into the trailing part of the
        scheduled window, schedule the next window asynchronously so the
        stream never stalls on a miss.  Returns (start, length) of the
        region to read in the background, or None.
        """
        st = self._ra.get((file_name, context))
        if st is None or st.window <= 0 or st.last_end < 0:
            return None
        end = offset + length
        if end < st.last_end - st.window:
            # Not yet into the final scheduled window (the PG_readahead
            # marker page sits at the start of the last window).
            return None
        if end > st.last_end + self.slack:
            return None  # not this stream (random far access)
        st.window = min(max(st.window * 2, self.ra_start), self.ra_max)
        start = st.last_end
        st.last_end = start + st.window
        return (start, st.window)

    # --------------------------------------------------------------- insert

    def insert(self, file_name: str, offset: int, length: int) -> None:
        if length <= 0:
            return
        ivs = self._extents.get(file_name)
        if ivs is None:
            ivs = self._extents[file_name] = ExtentMap()
        s, e, added = ivs.add(offset, offset + length)
        self.resident_bytes += added
        self._fifo.append((file_name, s, e))
        self._evict()

    def invalidate(self, file_name: str, offset: int, length: int) -> None:
        """Drop any cached bytes overlapping a written range."""
        ivs = self._extents.get(file_name)
        if ivs:
            self.resident_bytes -= ivs.subtract(offset, offset + length)

    def _evict(self) -> None:
        while self.resident_bytes > self.capacity_bytes and self._fifo:
            fname, s, e = self._fifo.popleft()
            # The recorded extent may have been merged/split since; drop
            # whatever of it is still resident.
            self.invalidate(fname, s, e - s)
