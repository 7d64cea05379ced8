"""The pure-Python event queue of the simulation kernel.

:class:`HeapQueue` is a binary heap of ``(t, priority, seq, event)``
entries: O(log n) per operation, zero tuning.  It is the reference
discipline and the schedule of every simulator that runs without the C
accelerator (``REPRO_SIM_ACCEL=0``, no C compiler, or a failed
accelerator self-test).  The C calendar queue ``repro.sim._cq.CalQ`` is
the fast path; it implements the same cohort contract and produces the
*identical* total order ``(t, priority, arrival)``: within one ``(t,
priority)`` band, events dispatch in push order.  The property tests in
``tests/test_equeue.py`` verify the two stay bit-identical over
randomized schedules including cancels and re-arms.

The cohort contract
-------------------

``pop_cohort()`` removes and returns the entire earliest ``(t,
priority)`` band as ``(t, priority, events)``.  The caller (the
dispatch loop in :mod:`repro.sim.core`) walks ``events`` replacing
each entry with ``None`` *before* dispatching it.  Two re-entrant
situations are handled by the queue itself:

- **Preemption**: if, while a band is being dispatched, a push arrives
  for the *same* ``t`` with a *lower* (more urgent) priority -- e.g. a
  process completion scheduled URGENT while a NORMAL band is draining
  -- the queue reclaims the not-yet-dispatched (non-``None``) remainder
  of the active band, requeues it at the *front* of its band, and
  clears the active list in place so the driver's loop terminates.  The
  driver then simply pops the next cohort, which is the urgent band.
- **Early exit**: when the loop stops mid-band for its own reasons
  (limit reached, target event processed, one ``step()``, an exception
  propagating out of a callback) it calls ``requeue_front(t, priority,
  events)`` with the partially-``None`` list; the queue restores the
  remainder exactly.

Same-band pushes *during* dispatch of that band go into a fresh band
(the old one has been popped), which is dispatched next -- the same
order the heap produces, since those entries carry newer seqs.

A queue also carries a ``now`` attribute, the clock mirror the C
accelerator's timeout fast path reads; the dispatch loop keeps it equal
to the simulator clock.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import TYPE_CHECKING, Any, Optional, Union

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.core import Event

__all__ = ["HeapQueue"]

#: Sentinel priority meaning "no active cohort, nothing can preempt".
_IDLE_PRIO = 1 << 30


class HeapQueue:
    """Binary-heap event queue with cohort pop (reference discipline)."""

    __slots__ = (
        "_heap",
        "_seq",
        "_active_t",
        "_active_prio",
        "_active_events",
        "_active_seqs",
        "now",
    )

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, int, Any]] = []
        self._seq = 0
        #: Clock mirror read by the C accelerator's queues; unused here
        #: but present so the dispatch loop can assign it uniformly.
        self.now = 0.0
        self._active_t = -1.0
        self._active_prio = _IDLE_PRIO
        self._active_events: Optional[list[Any]] = None
        self._active_seqs: list[int] = []

    def push(self, t: float, prio: int, ev: "Event") -> None:
        if prio < self._active_prio and t == self._active_t:
            self._preempt()
        self._seq += 1
        heappush(self._heap, (t, prio, self._seq, ev))

    def _preempt(self) -> None:
        """Reclaim the undispatched remainder of the active cohort."""
        events = self._active_events
        band_t = self._active_t
        band_prio = self._active_prio
        self._active_prio = _IDLE_PRIO
        self._active_events = None
        if events is None:
            return
        for idx, ev in enumerate(events):
            if ev is not None:
                heappush(self._heap, (band_t, band_prio, self._active_seqs[idx], ev))
        del events[:]  # stops the driver's loop over this list

    def pop_cohort(self) -> Optional[tuple[float, int, list[Any]]]:
        heap = self._heap
        if not heap:
            self._active_prio = _IDLE_PRIO
            self._active_events = None
            return None
        t, prio, seq, ev = heappop(heap)
        events = [ev]
        seqs = [seq]
        while heap and heap[0][0] == t and heap[0][1] == prio:
            _t, _p, s, e = heappop(heap)
            events.append(e)
            seqs.append(s)
        self._active_t = t
        self._active_prio = prio
        self._active_events = events
        self._active_seqs = seqs
        return t, prio, events

    def requeue_front(self, t: float, prio: int, events: list[Any]) -> None:
        """Restore the non-``None`` remainder of a cohort list."""
        seqs = self._active_seqs
        for idx, ev in enumerate(events):
            if ev is not None:
                heappush(self._heap, (t, prio, seqs[idx], ev))
        self._active_prio = _IDLE_PRIO
        self._active_events = None

    def peek(self) -> float:
        return self._heap[0][0] if self._heap else float("inf")

    def info(self) -> dict[str, Any]:
        return {"discipline": "heap", "count": len(self._heap)}

    def __len__(self) -> int:
        return len(self._heap)


#: The heap or the C-accelerated calendar, which has the same surface.
EventQueue = Union[HeapQueue, Any]
