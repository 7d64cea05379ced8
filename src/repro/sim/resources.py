"""Capacity-limited resources and producer/consumer stores.

These follow SimPy semantics closely enough to be familiar:

- :class:`Resource` -- ``n`` identical servers; ``request()`` returns an
  event that fires when a slot is granted; ``release()`` frees it.
- :class:`PriorityResource` -- like Resource but the wait queue is ordered
  by a caller-supplied priority (lower first), FIFO within a priority.
- :class:`Store` -- unbounded-or-bounded FIFO buffer of items with ``put``
  and ``get`` events.
- :class:`FilterStore` -- Store whose ``get`` takes a predicate.

When the owning simulator sanitizes (``REPRO_SANITIZE=1`` /
``Simulator(sanitize=True)``), every request/grant/release is reported
to the :class:`~repro.devtools.sanitizer.SimSanitizer`, which attributes
leaked and double-released slots to the process that acquired them.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Callable, Optional

from repro.sim.core import NORMAL, Event, SimulationError, Simulator

__all__ = ["Resource", "PriorityResource", "Store", "FilterStore"]


class _Request(Event):
    """Event granted when the resource slot is acquired."""

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource") -> None:
        # Event.__init__, with the slots set directly: every network
        # transfer makes two requests, so the constructor chain is hot.
        self.sim = resource.sim
        self.callbacks = []
        self._value = None
        self._ok = True
        self._triggered = False
        self._processed = False
        self._defused = False
        self.resource = resource

    # Support ``with`` blocks for symmetry with SimPy-style code in tests.
    def __enter__(self) -> "_Request":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.resource.release(self)


class Resource:
    """``capacity`` identical servers with a FIFO wait queue."""

    def __init__(self, sim: Simulator, capacity: int = 1) -> None:
        if capacity < 1:
            raise SimulationError("Resource capacity must be >= 1")
        self.sim = sim
        self.capacity = capacity
        self.users: list[_Request] = []
        self.queue: deque[_Request] = deque()  # simlint: ignore[SL006] one entry per waiting process

    @property
    def count(self) -> int:
        """Number of slots currently in use."""
        return len(self.users)

    def request(self) -> _Request:
        sim = self.sim
        req = _Request(self)
        san = sim._sanitizer
        wd = sim._watchdog
        if san is not None:
            san.on_request(self, req)
        if wd is not None:
            wd.on_request(self, req)
        if len(self.users) < self.capacity:
            self.users.append(req)
            if san is not None:
                san.on_acquire(self, req)
            if wd is not None:
                wd.on_acquire(self, req)
            # req.succeed(req), inlined: a fresh request is never triggered.
            req._triggered = True
            req._value = req
            sim._queue.push(sim._now, NORMAL, req)
        else:
            self.queue.append(req)
        return req

    def release(self, request: _Request) -> None:
        san = self.sim._sanitizer
        wd = self.sim._watchdog
        if san is not None:
            # Raises with owning-process attribution on a double release.
            san.on_release(self, request)
        if wd is not None:
            wd.on_release(self, request)
        try:
            self.users.remove(request)
        except ValueError:
            # Releasing a queued (never-granted) request cancels it.
            try:
                self.queue.remove(request)
                return
            except ValueError:
                raise SimulationError("release() of unknown request") from None
        while self.queue and len(self.users) < self.capacity:
            nxt = self.queue.popleft()
            self.users.append(nxt)
            if san is not None:
                san.on_acquire(self, nxt)
            if wd is not None:
                wd.on_acquire(self, nxt)
            nxt.succeed(nxt)


class _PriorityRequest(_Request):
    __slots__ = ("priority", "seq", "_queued", "_cancelled")

    def __init__(self, resource: "PriorityResource", priority: float, seq: int) -> None:
        super().__init__(resource)
        self.priority = priority
        self.seq = seq
        #: True while sitting in the wait heap (set False on grant/cancel).
        self._queued = False
        #: Lazy-deletion tombstone: cancelled entries stay in the heap and
        #: are discarded when they surface at dequeue time.
        self._cancelled = False

    def __lt__(self, other: "_PriorityRequest") -> bool:
        return (self.priority, self.seq) < (other.priority, other.seq)


class PriorityResource(Resource):
    """Resource whose waiters are served lowest-priority-value first."""

    def __init__(self, sim: Simulator, capacity: int = 1) -> None:
        super().__init__(sim, capacity)
        self._pq: list[_PriorityRequest] = []
        self._seq = 0
        self._n_cancelled = 0

    def request(self, priority: float = 0.0) -> _PriorityRequest:  # type: ignore[override]
        self._seq += 1
        req = _PriorityRequest(self, priority, self._seq)
        san = self.sim._sanitizer
        wd = self.sim._watchdog
        if san is not None:
            san.on_request(self, req)
        if wd is not None:
            wd.on_request(self, req)
        if len(self.users) < self.capacity:
            self.users.append(req)
            if san is not None:
                san.on_acquire(self, req)
            if wd is not None:
                wd.on_acquire(self, req)
            req.succeed(req)
        else:
            req._queued = True
            heapq.heappush(self._pq, req)
        return req

    def release(self, request: _Request) -> None:  # type: ignore[override]
        san = self.sim._sanitizer
        wd = self.sim._watchdog
        if san is not None:
            san.on_release(self, request)
        if wd is not None:
            wd.on_release(self, request)
        try:
            self.users.remove(request)
        except ValueError:
            # Releasing a queued (never-granted) request cancels it: O(1)
            # lazy tombstone deletion instead of remove()+heapify (O(n)).
            # The entry stays in the heap and is discarded at dequeue.
            if (
                isinstance(request, _PriorityRequest)
                and request._queued
                and not request._cancelled
            ):
                request._cancelled = True
                request._queued = False
                self._n_cancelled += 1
                # Keep the heap from filling with tombstones under heavy
                # cancel churn (e.g. deadline-based request retraction).
                if self._n_cancelled > 64 and self._n_cancelled * 2 > len(self._pq):
                    self._pq = [r for r in self._pq if not r._cancelled]
                    heapq.heapify(self._pq)
                    self._n_cancelled = 0
                return
            raise SimulationError("release() of unknown request") from None
        while self._pq and len(self.users) < self.capacity:
            nxt = heapq.heappop(self._pq)
            if nxt._cancelled:
                self._n_cancelled -= 1
                continue
            nxt._queued = False
            self.users.append(nxt)
            if san is not None:
                san.on_acquire(self, nxt)
            if wd is not None:
                wd.on_acquire(self, nxt)
            nxt.succeed(nxt)


class Store:
    """FIFO item buffer with optional capacity bound.

    ``put(item)`` returns an event that fires once the item is accepted;
    ``get()`` returns an event that fires with the oldest item.
    """

    def __init__(self, sim: Simulator, capacity: float = float("inf")) -> None:
        if capacity <= 0:
            raise SimulationError("Store capacity must be positive")
        self.sim = sim
        self.capacity = capacity
        self.items: deque[Any] = deque()  # simlint: ignore[SL006] bounded by Store capacity (put blocks at cap)
        self._getters: deque[Event] = deque()  # simlint: ignore[SL006] one entry per waiting process
        self._putters: deque[tuple[Event, Any]] = deque()  # simlint: ignore[SL006] one entry per waiting process

    def __len__(self) -> int:
        return len(self.items)

    def put(self, item: Any) -> Event:
        ev = Event(self.sim)
        self._putters.append((ev, item))
        self._dispatch()
        return ev

    def get(self) -> Event:
        ev = Event(self.sim)
        self._getters.append(ev)
        self._dispatch()
        return ev

    def _dispatch(self) -> None:
        # Accept puts while there is room.
        while self._putters and len(self.items) < self.capacity:
            ev, item = self._putters.popleft()
            self.items.append(item)
            ev.succeed()
        # Serve getters while items remain.
        while self._getters and self.items:
            ev = self._getters.popleft()
            ev.succeed(self.items.popleft())
            # A removal may unblock a putter.
            while self._putters and len(self.items) < self.capacity:
                pev, item = self._putters.popleft()
                self.items.append(item)
                pev.succeed()


class FilterStore(Store):
    """Store whose ``get`` may specify a predicate over items."""

    def __init__(self, sim: Simulator, capacity: float = float("inf")) -> None:
        super().__init__(sim, capacity)
        self._fgetters: deque[tuple[Event, Callable[[Any], bool]]] = deque()  # simlint: ignore[SL006] one entry per waiting process

    def get(self, predicate: Optional[Callable[[Any], bool]] = None) -> Event:  # type: ignore[override]
        pred = predicate or (lambda _item: True)
        ev = Event(self.sim)
        self._fgetters.append((ev, pred))
        self._dispatch()
        return ev

    def _dispatch(self) -> None:  # type: ignore[override]
        while self._putters and len(self.items) < self.capacity:
            pev, item = self._putters.popleft()
            self.items.append(item)
            pev.succeed()
        served = True
        while served:
            served = False
            for gi, (ev, pred) in enumerate(self._fgetters):
                match_idx = None
                for ii, item in enumerate(self.items):
                    if pred(item):
                        match_idx = ii
                        break
                if match_idx is not None:
                    item = self.items[match_idx]
                    del self.items[match_idx]
                    del self._fgetters[gi]
                    ev.succeed(item)
                    served = True
                    while self._putters and len(self.items) < self.capacity:
                        pev, pitem = self._putters.popleft()
                        self.items.append(pitem)
                        pev.succeed()
                    break
