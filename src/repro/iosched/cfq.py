"""CFQ (Completely Fair Queueing) elevator -- the paper's default.

Structure follows the Linux CFQ of the 2.6.3x era at the fidelity the
paper's effects require:

- one LBN-sorted queue per issuing *stream* (process / server I/O
  thread) for synchronous requests;
- one shared background queue for asynchronous requests (readahead,
  background writeback), served only when no sync work is queued and
  never idled on -- Linux CFQ's sync-over-async priority;
- sync streams are served round-robin, each receiving a time slice
  (``SLICE_SYNC_S``, 100 ms), dispatching in C-LOOK order;
- when the active sync stream's queue runs dry mid-slice, CFQ *idles*
  the disk for ``SLICE_IDLE_S`` (8 ms) hoping the stream issues a
  nearby request -- but only for streams whose measured *think time*
  (gap from a request's completion to the stream's next submission) is
  short, reproducing ``cfq_update_idle_window``: idling on a process
  that historically takes long to issue its next request only wastes
  the disk.

Both properties the paper leans on emerge: (1) a stream that trickles
synchronous requests one at a time gets FIFO-quality service, and (2)
two interleaved streams reading different file regions force a long
seek at every slice boundary.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.iosched.base import Decision, IoScheduler
from repro.iosched.request import BlockRequest, IoUnit
from repro.iosched.squeue import SortedUnitQueue

__all__ = ["CfqScheduler"]

#: Linux CFQ defaults: a sync stream's time slice, and how long the disk
#: idles for a stream whose queue ran dry mid-slice.
SLICE_SYNC_S = 0.100
SLICE_IDLE_S = 0.008


class _StreamState:
    __slots__ = ("queue", "last_completion", "ttime_mean", "n_inflight")

    def __init__(self) -> None:
        self.queue = SortedUnitQueue()
        self.last_completion: float | None = None
        #: EMA of think time (completion -> next submission), seconds.
        self.ttime_mean = 0.0
        self.n_inflight = 0


class CfqScheduler(IoScheduler):
    """Linux CFQ: per-stream sorted queues served round-robin in time
    slices, think-time-gated idling, background class for async I/O."""

    def __init__(self) -> None:
        super().__init__()
        #: stream_id -> sync state; OrderedDict gives stable round-robin.
        self._streams: "OrderedDict[int, _StreamState]" = OrderedDict()
        self._async = SortedUnitQueue()
        self._active: int | None = None
        self._slice_start = 0.0
        self._idle_deadline: float | None = None
        #: Running unit counts of the sync queues and of the async queue.
        self._n_sync_queued = 0
        self._n_async_queued = 0

    # ------------------------------------------------------------------

    def _state(self, stream_id: int) -> _StreamState:
        st = self._streams.get(stream_id)
        if st is None:
            st = _StreamState()
            self._streams[stream_id] = st
        return st

    def add(self, req: BlockRequest, now: float) -> None:
        if req.is_async:
            added = self._async.add(req)
            self._n_async_queued += added
        else:
            st = self._state(req.stream_id)
            queue = st.queue
            # Think-time sample: completion of the stream's previous
            # request to this submission, when the stream had gone idle.
            if st.last_completion is not None and st.n_inflight == 0 and not queue.units:
                sample = max(now - st.last_completion, 0.0)
                st.ttime_mean = 0.7 * st.ttime_mean + 0.3 * sample
            added = queue.add(req)
            self._n_sync_queued += added
        self.n_merges += 1 - added

    def on_complete(self, unit: IoUnit, now: float) -> None:
        for part in unit.parts:
            if part.is_async:
                continue
            st = self._streams.get(part.stream_id)
            if st is not None:
                st.last_completion = now
                st.n_inflight = max(st.n_inflight - 1, 0)

    def __len__(self) -> int:
        return self._n_sync_queued + self._n_async_queued

    # ------------------------------------------------------------------

    def _idle_worthwhile(self, stream_id: int) -> bool:
        st = self._streams.get(stream_id)
        if st is None:
            return False
        return st.ttime_mean <= SLICE_IDLE_S

    def _rotate_active(self) -> None:
        if self._active is not None and self._active in self._streams:
            self._streams.move_to_end(self._active)
        self._active = None
        self._idle_deadline = None

    def _elect(self, now: float) -> int | None:
        for sid, st in self._streams.items():
            if len(st.queue) > 0:
                self._active = sid
                self._slice_start = now
                self._idle_deadline = None
                return sid
        return None

    def _serve_sync(self, sid: int, head_lbn: int) -> Decision:
        st = self._streams[sid]
        unit = st.queue.pop_next(head_lbn)
        self._n_sync_queued -= 1
        st.n_inflight += 1
        self._idle_deadline = None
        return unit

    def decide(self, now: float, head_lbn: int) -> Decision:
        if self._n_sync_queued == 0:
            # Honour an armed idle window for the active stream before
            # surrendering the disk to background work.
            if (
                self._active is not None
                and self._idle_deadline is not None
                and now < self._idle_deadline
            ):
                return self._idle_deadline - now
            if self._n_async_queued:
                self._n_async_queued -= 1
                return self._async.pop_next(head_lbn)
            self._rotate_active()
            return None

        if self._active is not None:
            st = self._streams.get(self._active)
            slice_expired = now - self._slice_start >= SLICE_SYNC_S
            if st is not None and len(st.queue) > 0 and not slice_expired:
                return self._serve_sync(self._active, head_lbn)
            if (
                st is not None
                and len(st.queue) == 0
                and not slice_expired
                and self._idle_worthwhile(self._active)
            ):
                if self._idle_deadline is None:
                    self._idle_deadline = now + SLICE_IDLE_S
                if now < self._idle_deadline:
                    return self._idle_deadline - now
            self._rotate_active()

        sid = self._elect(now)
        if sid is None:  # pragma: no cover - guarded by _n_sync_queued
            return None
        return self._serve_sync(sid, head_lbn)
