"""The FIFO resource and store the model's kernel users need.

- :class:`Resource` -- ``n`` identical servers with a FIFO wait queue;
  ``request()`` returns an event that fires when a slot is granted and
  ``release()`` frees it (or cancels a still-queued request).  Each NIC
  side of the network model is a ``Resource(capacity=1)``.  A granted
  request's value is the request itself while it is held; ``release()``
  drops that value back to ``None``, so a released request holds no
  reference to itself and is freed by refcount, not by the cyclic
  garbage collector.
- :class:`Store` -- unbounded-or-bounded FIFO buffer of items with ``put``
  and ``get`` events.

When a sanitizer or a stall watchdog observes the simulator, every
request, grant and release is entered in its lifecycle ledger
(:mod:`repro.sim.ledger`), which attributes each slot to the process
that requested it.  Otherwise, on the C kernel, a
``Resource(capacity=1)`` -- a NIC side -- requests and releases through
the accelerator: the same steps, grant order and pushes as the methods
here, which it defers to while a ledger is attached.
"""
from __future__ import annotations

from collections import deque
from typing import Any

from repro.sim.core import NORMAL, Event, SimulationError, Simulator

__all__ = ["Resource", "Store"]


class _Request(Event):
    """Event granted when the resource slot is acquired."""

    #: ``record`` is set only while a ledger tracks the request.
    __slots__ = ("resource", "record")

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


class Resource:
    """``capacity`` identical servers with a FIFO wait queue."""

    def __init__(self, sim: Simulator, capacity: int = 1) -> None:
        if capacity < 1:
            raise SimulationError("Resource capacity must be >= 1")
        self.sim = sim
        self.capacity = capacity
        self.users: list[_Request] = []
        self.queue: deque[_Request] = deque()  # simlint: ignore[SL006] one entry per waiting process
        accel = sim._accel
        if accel is not None and sim._ledger is None and capacity == 1:
            # C request/release (a NIC side makes one of each per message);
            # they defer to the methods below while a ledger is attached.
            q = sim._queue
            self.request = accel.make_grant(  # type: ignore[method-assign]
                self, q, _Request, Resource.request, False
            )
            self.release = accel.make_grant(  # type: ignore[method-assign]
                self, q, _Request, Resource.release, True
            )

    @property
    def count(self) -> int:
        """Number of slots currently in use."""
        return len(self.users)

    def request(self) -> _Request:
        sim = self.sim
        req = _Request(self)
        if len(self.users) < self.capacity:
            self.users.append(req)
            # req.succeed(req), inlined: a fresh request is never triggered.
            req._triggered = True
            req._value = req
            sim._queue.push(sim._now, NORMAL, req)
        else:
            self.queue.append(req)
        ledger = sim._ledger
        if ledger is not None:
            ledger.request(self, req)
        return req

    def release(self, request: _Request) -> None:
        ledger = self.sim._ledger
        nxt = None
        try:
            self.users.remove(request)
        except ValueError:
            # Releasing a queued (never-granted) request cancels it.
            try:
                self.queue.remove(request)
            except ValueError:
                if ledger is not None:
                    # Raises with owning-process attribution on a double
                    # release when sanitizing.
                    ledger.release(request, None)
                raise SimulationError("release() of unknown request") from None
        else:
            # The grant's value was the request itself; a released
            # request must not keep that self-cycle (refcount frees it).
            request._value = None
            # A request queues only while every slot is taken, so the
            # freed slot goes to the head of the queue.
            if self.queue:
                nxt = self.queue.popleft()
                self.users.append(nxt)
                nxt.succeed(nxt)
        if ledger is not None:
            ledger.release(request, nxt)


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
