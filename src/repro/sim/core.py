"""Core event loop, events, and coroutine processes.

The design follows the classic event-list DES structure: a pending-event
schedule ordered by ``(time, priority, arrival)``.  Events are one-shot:
once *triggered* they are placed on the schedule, and when *processed*
their callbacks run exactly once.  A :class:`Process` wraps a generator;
each value the generator yields must be an :class:`Event`, and the
process is resumed (via ``send`` or ``throw``) when that event is
processed.

Determinism: ties in time are broken first by an integer priority (lower
runs first) and then by arrival order, so a simulation is a pure
function of its inputs.

The schedule is a binary heap on both kernels: the C ``BandHeap`` of
the optional accelerator (:mod:`repro.sim._accel`, built on first use
when a C compiler is available), whose entries are ``(time, priority)``
bands, or, without it, the pure-Python
:class:`repro.sim.equeue.HeapQueue`, whose entries are single events;
set ``REPRO_SIM_ACCEL=0`` to force pure Python.  Both produce the same
order, so every simulated result is identical either way.  Events are
dispatched in *cohorts* -- the events sharing one ``(time, priority)``
band are drained in a single inner loop so per-event bookkeeping (stop
check, sanitizer probe, clock write) is amortized per band.  One loop,
:meth:`Simulator._drive`, serves ``step``, ``run`` and
``run_until_event``; they differ only in when it stops.  The
accelerator's ``drive`` is the same loop in C and runs whenever the
sanitizer is off.

Performance: the inner loop is allocation-light.  :class:`Timeout` events
are recycled through a per-simulator free list (see
:meth:`Simulator.timeout`); recycling is guarded by a CPython refcount
check so an event that any other code still holds is never reused.

Sanitizing: ``Simulator(sanitize=True)`` (or ``REPRO_SANITIZE=1``)
attaches a :class:`repro.devtools.sanitizer.SimSanitizer` that validates
dispatch-time invariants (clock monotonicity, strict schedule-key
ordering, no double dispatch) and reads process/resource lifecycle from
the kernel's ledger (:mod:`repro.sim.ledger`).
Service loops that intentionally never finish must be spawned with
``daemon=True`` so the sanitizer's leak check skips them.

Observing: ``Simulator(observe=obs)`` attaches a
:class:`repro.obs.Observability` (metrics registry + span tracer) that
components publish into; by default ``Simulator.obs`` is ``None``, no
component registers anything, and each holds ``None`` in place of its
recorded instruments and tracer.  Most metrics are views that the
registry reads from component state at snapshot time, so they cost
nothing per event; a recorded instrument's site pays one ``is not None``
test in an unobserved run.
The kernel itself never consults the observability layer -- only
components (disks, schedulers, servers, caches) do -- and observation
never schedules events, so observed runs are bit-identical to plain
runs.
"""

from __future__ import annotations

import os
from collections.abc import Generator
from math import inf
from sys import getrefcount
from types import GeneratorType
from typing import TYPE_CHECKING, Any, Callable, Optional

from repro.sim import _accel
from repro.sim.equeue import EventQueue, HeapQueue

if TYPE_CHECKING:  # pragma: no cover
    from repro.devtools.sanitizer import SimSanitizer
    from repro.obs import Observability
    from repro.sim.ledger import Ledger

__all__ = [
    "Event",
    "Interrupt",
    "Process",
    "SimulationError",
    "Simulator",
    "Timeout",
    "all_of",
    "any_of",
]

#: Default scheduling priority for ordinary events.
NORMAL = 1
#: Priority used for urgent bookkeeping events (interrupts, process resume).
URGENT = 0

#: Upper bound on recycled Timeout objects kept per simulator.
_POOL_MAX = 4096

#: Allocates an event without running its ``__init__`` chain; the hot
#: constructors set every slot themselves.
_new = object.__new__

#: The compiled repro.sim._cq extension module once it has been loaded,
#: set up, and self-tested (see the wiring at the bottom of this file);
#: None when unavailable or disabled via REPRO_SIM_ACCEL=0.
_CQ: Optional[Any] = None


class SimulationError(Exception):
    """Raised for misuse of the simulation kernel."""


class Interrupt(Exception):
    """Thrown into a process when :meth:`Process.interrupt` is called.

    The interrupting party may attach an arbitrary ``cause`` describing why
    the victim was interrupted (e.g. a pre-execution deadline expiring).
    """

    def __init__(self, cause: Any = None) -> None:
        super().__init__(cause)
        self.cause = cause

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Interrupt(cause={self.cause!r})"


class Event:
    """A one-shot event that processes can wait on.

    Life cycle: *pending* -> *triggered* (``succeed``/``fail`` called, queued
    on the heap) -> *processed* (callbacks executed).  Waiting is expressed
    by appending a callback; :class:`Process` objects do this automatically
    when a generator yields the event.
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "_triggered", "_processed", "_defused")

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = None
        self._ok: bool = True
        self._triggered = False
        self._processed = False
        self._defused = False

    # -- state ---------------------------------------------------------

    @property
    def triggered(self) -> bool:
        """True once ``succeed``/``fail`` has been called."""
        return self._triggered

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self._processed

    @property
    def ok(self) -> bool:
        """True if the event succeeded (only meaningful once triggered)."""
        return self._ok

    @property
    def value(self) -> Any:
        """The event's payload (or exception when failed)."""
        return self._value

    # -- triggering ----------------------------------------------------

    def succeed(self, value: Any = None, priority: int = NORMAL) -> "Event":
        """Trigger the event successfully with an optional payload."""
        if self._triggered:
            raise SimulationError(f"{self!r} already triggered")
        self._triggered = True
        self._ok = True
        self._value = value
        sim = self.sim
        sim._queue.push(sim._now, priority, self)
        return self

    def fail(self, exception: BaseException, priority: int = NORMAL) -> "Event":
        """Trigger the event as failed; waiters get the exception thrown."""
        if self._triggered:
            raise SimulationError(f"{self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise SimulationError("fail() requires an exception instance")
        self._triggered = True
        self._ok = False
        self._value = exception
        sim = self.sim
        sim._queue.push(sim._now, priority, self)
        return self

    # -- internals -----------------------------------------------------

    def _process(self) -> None:
        """Run callbacks; called by the simulator when dequeued."""
        callbacks = self.callbacks
        assert callbacks is not None, "event processed twice"
        self.callbacks = None
        self._processed = True
        for cb in callbacks:
            cb(self)
        if not self._ok and not self._defused:
            # An un-waited-for failure would otherwise vanish silently.
            raise self._value

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = (
            "processed" if self._processed else "triggered" if self._triggered else "pending"
        )
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires after a fixed delay of simulated time."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise SimulationError(f"negative timeout delay {delay!r}")
        super().__init__(sim)
        self.delay = delay
        self._triggered = True
        self._ok = True
        self._value = value
        sim._queue.push(sim._now + delay, NORMAL, self)

    def __call__(self, _event: Event) -> None:
        """As a callback of another event (:meth:`Simulator.hop_after`),
        queue this zero-delay timeout NORMAL at the current time."""
        sim = self.sim
        sim._queue.push(sim._now, NORMAL, self)


class _Initialize(Event):
    """Internal event used to start a process at creation time.

    Built by :meth:`Process.__init__` with its slots set directly: an
    URGENT event at the current time whose one callback resumes the
    process.
    """

    __slots__ = ()


class Process(Event):
    """A running coroutine.  Completes (as an event) when its generator does.

    The wrapped generator yields :class:`Event` objects.  When a yielded
    event is processed, the process resumes with ``event.value`` sent in
    (or the exception thrown in, if the event failed).

    ``daemon=True`` marks a process as an intentional forever-running
    service loop (elevator dispatchers, samplers, flushers): the
    sanitizer's leak check ignores daemons still alive when the schedule
    drains.  The flag has no effect on scheduling.
    """

    __slots__ = ("gen", "name", "daemon", "_target", "_resume_cb", "_send", "_throw")

    def __init__(
        self,
        sim: "Simulator",
        gen: Generator,
        name: Optional[str] = None,
        daemon: bool = False,
    ) -> None:
        if type(gen) is not GeneratorType and (
            not hasattr(gen, "send") or not hasattr(gen, "throw")
        ):
            raise SimulationError(f"process body must be a generator, got {gen!r}")
        # Event.__init__, with the slots set directly: one Process starts
        # per piece of I/O, so the constructor chain is a hot path.
        self.sim = sim
        self.callbacks = []
        self._value = None
        self._ok = True
        self._triggered = False
        self._processed = False
        self._defused = False
        self.gen = gen
        self.name = name or getattr(gen, "__name__", "process")
        self.daemon = daemon
        #: The event this process is currently waiting on (None if running
        #: or finished).  Used by interrupt() to detach.
        self._target: Optional[Event] = None
        # Pre-bound hot-path callables: binding a method allocates, and
        # _resume is registered as a callback once per yield.
        self._resume_cb = resume = self._resume
        self._send = gen.send
        self._throw = gen.throw
        if sim._ledger is not None:
            sim._ledger.spawn(self)
        # The _Initialize that starts the body: triggered, queued URGENT
        # at the current time.
        init = _new(_Initialize)
        init.sim = sim
        init.callbacks = [resume]
        init._value = None
        init._ok = True
        init._triggered = True
        init._processed = False
        init._defused = False
        sim._queue.push(sim._now, URGENT, init)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return not self._triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        The process must be alive and not currently executing.  The event it
        was waiting on stays pending; the process may re-wait on it.
        """
        if not self.is_alive:
            raise SimulationError(f"cannot interrupt finished process {self.name!r}")
        if self is self.sim.active_process:
            raise SimulationError("a process cannot interrupt itself")
        interrupt_ev = Event(self.sim)
        interrupt_ev._defused = True
        assert interrupt_ev.callbacks is not None
        interrupt_ev.callbacks.append(self._deliver_interrupt)
        interrupt_ev._triggered = True
        interrupt_ev._ok = False
        interrupt_ev._value = Interrupt(cause)
        # Detach from the current target so its eventual firing does not
        # resume us twice.
        self._detach()
        self.sim._enqueue(interrupt_ev, delay=0.0, priority=URGENT)

    # -- internals -----------------------------------------------------

    def _detach(self) -> None:
        target = self._target
        if target is not None and target.callbacks is not None:
            try:
                target.callbacks.remove(self._resume_cb)
            except ValueError:  # pragma: no cover - defensive
                pass
        self._target = None

    def _deliver_interrupt(self, event: Event) -> None:
        # A process interrupted before it first ran had no target to
        # detach from at interrupt() time; it may have started and
        # yielded since, so detach from whatever it waits on now.
        self._detach()
        self._resume(event)

    def _resume(self, event: Event) -> None:
        sim = self.sim
        sim._active = self
        self._target = None
        try:
            if event._ok:
                result = self._send(event._value)
            else:
                event._defused = True
                result = self._throw(event._value)
        except StopIteration as exc:
            sim._active = None
            self._resume_cb = None  # the bound self-reference: a cycle
            self.succeed(exc.value, priority=URGENT)
            return
        except BaseException as exc:
            sim._active = None
            self._resume_cb = None
            self.fail(exc, priority=URGENT)
            return
        sim._active = None
        # Fast path for the dominant case: the generator yielded a fresh
        # Timeout (always ok, never failed, callbacks list untouched).
        if result.__class__ is Timeout and result.sim is sim:
            callbacks = result.callbacks
            if callbacks is not None:
                callbacks.append(self._resume_cb)
                self._target = result
                return
        self._resume_tail(result)

    def _resume_tail(self, result: Any) -> None:
        # Cold continuation of _resume, shared with the C dispatch pump
        # (which inlines everything above this point).
        if not isinstance(result, Event):
            raise SimulationError(
                f"process {self.name!r} yielded non-event {result!r}"
            )
        if result.sim is not self.sim:
            raise SimulationError("yielded event belongs to a different simulator")
        if result.callbacks is None:
            # Already processed: resume immediately via a fresh wake event.
            wake = Event(self.sim)
            assert wake.callbacks is not None
            wake.callbacks.append(self._resume_cb)
            wake._triggered = True
            wake._ok = result._ok
            wake._value = result._value
            if not result._ok:
                wake._defused = True
            self.sim._enqueue(wake, delay=0.0, priority=URGENT)
        else:
            result.callbacks.append(self._resume_cb)
            self._target = result
            if not result._ok:
                result._defused = True

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Process {self.name!r} {'alive' if self.is_alive else 'done'}>"


class _Condition(Event):
    """Base for all_of / any_of composite events."""

    __slots__ = ("events", "_n_done")

    def __init__(self, sim: "Simulator", events: list[Event]) -> None:
        super().__init__(sim)
        self.events = list(events)
        self._n_done = 0
        for ev in self.events:
            if ev.sim is not self.sim:
                raise SimulationError("condition mixes events from different simulators")
            if ev.callbacks is None:
                self._check(ev)
            elif not self._triggered:
                ev.callbacks.append(self._check)

    def _check(self, event: Event) -> None:
        raise NotImplementedError

    def _unhook(self) -> None:
        # Once this condition has fired, its _check on a still-pending
        # event is a no-op; unhook it, or that event and this condition
        # keep each other alive in a cycle only the collector frees.
        check = self._check
        for ev in self.events:
            if ev.callbacks is not None:
                try:
                    ev.callbacks.remove(check)
                except ValueError:  # a repeated event, already unhooked
                    pass

    def _collect(self) -> dict[Event, Any]:
        return {ev: ev._value for ev in self.events if ev._processed and ev._ok}


class _AllOf(_Condition):
    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self._triggered:
            return
        if not event._ok:
            event._defused = True
            self.fail(event._value)
            self._unhook()
            return
        self._n_done += 1
        if self._n_done == len(self.events):
            self.succeed(self._collect())


class _AnyOf(_Condition):
    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self._triggered:
            return
        if not event._ok:
            event._defused = True
            self.fail(event._value)
        else:
            self.succeed(self._collect())
        self._unhook()


def all_of(sim: "Simulator", events: list[Event]) -> Event:
    """Event that fires when *all* of ``events`` have fired.

    Value is a dict mapping each constituent event to its value.
    """
    if not events:
        ev = Event(sim)
        ev.succeed({})
        return ev
    return _AllOf(sim, events)


def any_of(sim: "Simulator", events: list[Event]) -> Event:
    """Event that fires when *any* of ``events`` has fired."""
    if not events:
        raise SimulationError("any_of() requires at least one event")
    return _AnyOf(sim, events)


class Simulator:
    """The discrete-event loop: a clock plus a schedule of triggered events.

    ``sanitize=True`` attaches a :class:`SimSanitizer` performing runtime
    invariant checks (see :mod:`repro.devtools.sanitizer`); the default
    ``None`` defers to the ``REPRO_SANITIZE`` environment variable.
    ``observe=`` attaches a :class:`repro.obs.Observability` layer that
    components publish metrics and spans into; the default leaves
    ``obs`` ``None``.

    ``queue=`` is a test seam: an event-queue instance implementing the
    cohort contract documented in :mod:`repro.sim.equeue` (a
    :class:`HeapQueue` or the accelerator's ``BandHeap``).  The default
    ``None`` takes the C ``BandHeap`` when the accelerator is available
    and a :class:`HeapQueue` otherwise.  Dispatch order is bit-identical
    across queues.
    """

    def __init__(
        self,
        sanitize: Optional[bool] = None,
        observe: Optional["Observability"] = None,
        queue: Optional[EventQueue] = None,
    ) -> None:
        self._now: float = 0.0
        self._active: Optional[Process] = None
        #: Monotone per-dispatch counter fed to the sanitizer's
        #: ``on_dispatch`` hook as the schedule sequence number.
        self._dispatch_seq = 0
        #: Free list of recycled Timeout objects.
        self._pool: list[Timeout] = []
        if sanitize is None:
            sanitize = bool(os.environ.get("REPRO_SANITIZE"))
        #: Lifecycle ledger (repro.sim.ledger) read by the sanitizer and
        #: the stall watchdog; None nominally, so unobserved runs pay one
        #: attribute load per process and request.
        self._ledger: Optional["Ledger"] = None
        #: The installed stall watchdog (repro.guard), for introspection
        #: only: the kernel never reads it.
        self.watchdog: Optional[Any] = None
        self._sanitizer: Optional["SimSanitizer"]
        if sanitize:
            # Imported lazily: devtools depends on this module.
            from repro.devtools.sanitizer import SimSanitizer

            self._sanitizer = SimSanitizer(self)
        else:
            self._sanitizer = None
        self.obs: Optional["Observability"] = observe
        if observe is not None:
            observe.bind(self)
        # -- pending-event schedule ------------------------------------
        if isinstance(queue, str):
            raise SimulationError(f"queue= takes an event-queue instance, not {queue!r}")
        if queue is None:
            queue = _CQ.BandHeap() if _CQ is not None else HeapQueue()
        self._queue: EventQueue = queue
        #: C accelerator module when the schedule is a C BandHeap, else None.
        self._accel: Optional[Any] = (
            _CQ if _CQ is not None and isinstance(queue, _CQ.BandHeap) else None
        )
        if self._accel is not None:
            # C fast path for sim.timeout(): pooled reset + push without
            # entering the interpreter.  Shadows the bound method; the
            # semantics (negative-delay check, pooled field reset) are
            # mirrored exactly in _cq.c.
            self.timeout = self._accel.make_timeout(  # type: ignore[method-assign]
                self, self._queue, self._pool
            )
            self.urgent_hop = self._accel.make_timeout(  # type: ignore[method-assign]
                self, self._queue, self._pool, 1
            )
            self.hop_after = self._accel.make_timeout(  # type: ignore[method-assign]
                self, self._queue, self._pool, 2
            )

    # -- clock & introspection ------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently executing, if any."""
        return self._active

    @property
    def sanitizer(self) -> Optional["SimSanitizer"]:
        """The attached runtime sanitizer, or None when not sanitizing."""
        return self._sanitizer

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        return self._queue.peek()

    # -- event factories -------------------------------------------------

    def event(self) -> Event:
        """Create a fresh untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event firing ``delay`` seconds from now.

        Recycles a pooled ``Timeout`` when one is available: the run loop
        returns a processed timeout to the pool only when the refcount
        proves nothing else still references it, so reuse is invisible to
        simulation code.
        """
        pool = self._pool
        if pool:
            if delay < 0:
                raise SimulationError(f"negative timeout delay {delay!r}")
            ev = pool.pop()
            # A pooled Timeout keeps its invariant flags (_triggered=True,
            # _ok=True, _defused=False); only the per-use fields reset.
            ev.callbacks = []
            ev.delay = delay
            ev._value = value
            ev._processed = False
            self._queue.push(self._now + delay, NORMAL, ev)
            return ev
        return Timeout(self, delay, value)

    def urgent_hop(self) -> Timeout:
        """A zero-delay timeout queued URGENT at the current time.

        Yielding it resumes the caller exactly where a process spawned
        at this point would first run, or where the joiners of a process
        ending here would be woken.  Code run inline in the caller keeps
        the dispatch order of the process it replaces by yielding a hop
        at each such point (``sim.timeout(0)`` is the NORMAL hop); a
        callback chain that replaces processes
        (``Network.transfer_all``) hangs its first step on one instead.
        Recycled through the timeout pool like :meth:`timeout`.
        """
        ev = self._hop()
        self._queue.push(self._now, URGENT, ev)
        return ev

    def hop_after(self, event: Event) -> Timeout:
        """A zero-delay timeout queued NORMAL when ``event`` is processed,
        from its place in ``event``'s callbacks, where
        ``all_of(sim, [event])`` pushes its trigger: yielding it resumes
        the caller where yielding that ``all_of`` would (for an event
        that does not fail), without the condition event."""
        if event.callbacks is None:
            raise SimulationError(f"hop_after() of processed {event!r}")
        ev = self._hop()
        event.callbacks.append(ev)
        return ev

    def _hop(self) -> Timeout:
        """A zero-delay Timeout, not yet queued, from the pool if it can."""
        pool = self._pool
        if pool:
            ev = pool.pop()
        else:
            ev = _new(Timeout)
            ev.sim = self
            ev._ok = True
            ev._triggered = True
            ev._defused = False
        ev.callbacks = []
        ev.delay = 0.0
        ev._value = None
        ev._processed = False
        return ev

    def process(
        self, gen: Generator, name: Optional[str] = None, daemon: bool = False
    ) -> Process:
        """Launch a generator as a simulation process.

        Pass ``daemon=True`` for intentional forever-running service
        loops so the sanitizer's leak check skips them.
        """
        return Process(self, gen, name=name, daemon=daemon)

    # -- running ----------------------------------------------------------

    def step(self) -> None:
        """Process the single next event."""
        if not self._drive(inf, budget=1)[0]:
            raise SimulationError("step() on an empty schedule")

    def run(self, until: Optional[float] = None) -> float:
        """Run until the schedule drains or the clock passes ``until``.

        Returns the final simulated time.  When ``until`` is given, the
        clock is advanced exactly to it even if no event lands there.
        """
        if until is not None and until < self._now:
            raise SimulationError(f"until={until} is in the past (now={self._now})")
        drained = self._drive(inf if until is None else until)[1]
        if until is not None:
            self._now = self._queue.now = max(self._now, until)
        if drained and self._sanitizer is not None:
            # The schedule fully drained: anything still alive or held is
            # a leak (daemons excepted).
            self._sanitizer.on_quiescent(self._now)
        return self._now

    def run_until_event(self, event: Event, limit: float = inf) -> Any:
        """Run until ``event`` is processed; return its value.

        Raises the event's exception if it failed, or
        :class:`SimulationError` if the schedule drains or ``limit`` is
        reached first.
        """
        drained = self._drive(limit, target=event)[1]
        if not event._processed:
            if drained:
                raise SimulationError("schedule drained before event fired (deadlock?)")
            raise SimulationError(f"time limit {limit} reached before event fired")
        if not event._ok:
            raise event._value
        return event._value

    def _drive(
        self, limit: float, target: Optional[Event] = None, budget: int = 0
    ) -> tuple[int, bool]:
        """The dispatch loop behind every public run method.

        Dispatches cohorts in ``(t, priority, arrival)`` order until the
        schedule drains, the next cohort lies beyond ``limit`` (it stays
        queued untouched), ``target`` has been processed, or ``budget``
        events have run (0 = no budget).  Returns ``(dispatched,
        drained)``.  With the accelerator and no sanitizer the same loop
        runs in C (``_cq.drive``).
        """
        q = self._queue
        pool = self._pool
        if self._accel is not None and self._sanitizer is None:
            return self._accel.drive(self, q, pool, limit, target, budget)
        san = self._sanitizer
        pop = q.pop_cohort
        watch = target is not None or budget > 0
        n = 0
        while target is None or not target._processed:
            band = pop()
            if band is None:
                return n, True
            t, prio, events = band
            if t > limit:
                q.requeue_front(t, prio, events)
                break
            self._now = q.now = t
            # Cohort inner loop: the size is re-read every iteration
            # because a preempting push clears the list in place, and
            # each slot is nulled *before* dispatch so the event's only
            # remaining references are local (pool recycling relies on
            # this, and a requeue after an exception or a stop skips it).
            i = 0
            while i < len(events):
                event = events[i]
                events[i] = None
                i += 1
                if san is not None:
                    self._dispatch_seq += 1
                    san.on_dispatch(t, prio, self._dispatch_seq, event)
                if event.__class__ is Timeout:
                    # Inlined Timeout._process: a timeout never fails, so
                    # the failure bookkeeping is skipped on the hot path.
                    callbacks = event.callbacks
                    event.callbacks = None
                    event._processed = True
                    try:
                        for cb in callbacks:  # type: ignore[union-attr]
                            cb(event)
                    except BaseException:
                        q.requeue_front(t, prio, events)
                        raise
                    if getrefcount(event) == 2 and len(pool) < _POOL_MAX:
                        pool.append(event)
                else:
                    try:
                        event._process()
                    except BaseException:
                        q.requeue_front(t, prio, events)
                        raise
                n += 1
                if watch and (n == budget or (target is not None and target._processed)):
                    q.requeue_front(t, prio, events)
                    return n, False
        return n, False

    # -- internals ---------------------------------------------------------

    def _enqueue(self, event: Event, delay: float, priority: int) -> None:
        self._queue.push(self._now + delay, priority, event)


# -- C accelerator wiring -------------------------------------------------


def _accel_selftest(mod: Any) -> bool:
    """End-to-end check of the C queue + dispatch pump before trusting it.

    Exercises ordering, two queued bands of one key, join (StopIteration
    -> URGENT succeed, which preempts the draining NORMAL band), the
    pooled timeout, urgent-hop and hop-after callables, a contended capacity-1
    resource grant and the release of a still-queued request (a cancel),
    an ``all_of`` over processes, a failed process caught by its joiner,
    and the drained return, then the network transfer chain
    (:func:`_chain_selftest`).  Any mismatch or exception disables the
    accelerator for the process; the pure-Python kernel is always safe.
    """
    try:
        # Imported here: repro.sim.resources imports this module.
        from repro.sim.resources import Resource

        sim = Simulator(sanitize=False, queue=mod.BandHeap())
        if sim._accel is not mod:
            return False
        out: list[tuple[float, Any]] = []
        nic = Resource(sim, 1)

        def worker(tag: str, d: float) -> Generator:
            yield sim.timeout(d)
            out.append((sim.now, tag))

        def joiner(proc: Process) -> Generator:
            value = yield proc
            out.append((sim.now, ("join", value)))

        def holder(tag: str) -> Generator:
            req = nic.request()
            yield req
            yield sim.timeout(1.0)
            nic.release(req)
            return (tag, sim.now)

        def failing() -> Generator:
            yield sim.timeout(0.5)
            raise KeyError("selftest")

        def canceller() -> Generator:
            yield sim.urgent_hop()
            req = nic.request()  # queued behind p's grant and q's wait
            yield sim.timeout(0.5)
            nic.release(req)  # cancels it: q keeps its turn
            out.append((sim.now, ("cancelled", req.triggered)))

        def contender() -> Generator:
            procs = [sim.process(holder("p")), sim.process(holder("q"))]
            sim.process(canceller())
            got = yield all_of(sim, procs)
            out.append((sim.now, sorted(got.values())))
            try:
                yield sim.process(failing())
            except KeyError:
                out.append((sim.now, "caught"))

        sim.process(worker("b", 3.0))
        sim.process(worker("a", 1.0))
        # x's return must wake the joiner before c's timeout, queued
        # behind x's in the same NORMAL band, runs
        sim.process(joiner(sim.process(worker("x", 2.0))))
        sim.process(worker("c", 2.0))
        # d's push comes between: e's timeout opens a second band of the
        # (2.0, NORMAL) key, which must still run after c's
        sim.process(worker("d", 1.0))
        sim.process(worker("e", 2.0))
        sim.process(contender())
        # hop_after: queued when `flag` is processed, behind the hop
        # that flag's setter pushed first
        flag = sim.event()

        def setter() -> Generator:
            yield sim.timeout(4.0)
            flag.succeed()
            yield sim.timeout(0)
            out.append((sim.now, "set"))

        def after() -> Generator:
            yield sim.hop_after(flag)
            out.append((sim.now, "after"))

        sim.process(setter())
        sim.process(after())
        end = sim.run()
        expected = [
            (0.5, ("cancelled", False)),
            (1.0, "a"),
            (1.0, "d"),
            (2.0, "x"),
            (2.0, ("join", None)),
            (2.0, "c"),
            (2.0, "e"),
            (2.0, [("p", 1.0), ("q", 2.0)]),
            (2.5, "caught"),
            (3.0, "b"),
            (4.0, "set"),
            (4.0, "after"),
        ]
        if not (out == expected and end == 4.0 and len(sim._queue) == 0):
            return False
        return _chain_selftest(mod)
    except Exception:  # noqa: BLE001 - any failure disables the accelerator
        return False


def _chain_selftest(mod: Any) -> bool:
    """The C transfer chain (``move``, ``fan``) on three stand-in nodes
    with wire time ``1 + nbytes``: A and B start together on node 0's
    TX, C queues on node 1's RX behind A, D is interrupted on the wire
    and E, queued on D's TX, gets it, and F's fan holds a loopback and a
    zero-byte move.  Then the hops: G's URGENT start hop takes node 0's
    TX ahead of holder g, woken with G at 10; h, woken with H at 13,
    takes it ahead of H's NORMAL start hop; and k, queued on the TX
    behind H, is granted by H's release before H's end hop wakes H.
    The times and counters are those of the Network.transfer
    generator."""
    from types import SimpleNamespace as Nic

    from repro.sim.resources import Resource

    sim = Simulator(sanitize=False, queue=mod.BandHeap())
    nics = [
        Nic(tx=Resource(sim, 1), rx=Resource(sim, 1), bytes_sent=0, bytes_received=0)
        for _ in range(3)
    ]
    net = Nic(messages_delivered=0)
    nodes = tuple((n, n.tx.request, n.tx.release, n.rx.request, n.rx.release) for n in nics)
    chain = (sim, sim._queue, sim._pool, net, nodes, 1.0, 0.25, 1.0)
    out: list[tuple[float, str]] = []

    def send(tag: str, src: int, dst: int, nbytes: int, victim: Any = None) -> Generator:
        if victim is not None:
            yield sim.timeout(1.0)
            victim.interrupt()
        move = mod.move(chain, src, dst, nbytes, None, False)  # as Network.transfer does
        try:
            yield move.landed
        except Interrupt:
            move.abort()
            tag += " interrupted"
        out.append((sim.now, tag))

    def fan() -> Generator:
        yield sim.timeout(5.0)
        done = Event(sim)
        sim.urgent_hop().callbacks.append(  # type: ignore[union-attr]
            mod.fan(chain, [(1, 1, 3), (0, 2, 0)], done)
        )
        yield done
        out.append((sim.now, "F"))

    def hopped(tag: str, at: float, start: int, end: bool) -> Generator:
        yield sim.timeout(at)
        move = mod.move(chain, 0, 1, 0, start, end)
        yield move.done if end else move.landed
        out.append((sim.now, tag))

    def holder(tag: str, at: float) -> Generator:  # node 0's TX for 1.0
        yield sim.timeout(at)
        yield (req := nics[0].tx.request())
        out.append((sim.now, tag))
        yield sim.timeout(1.0)
        nics[0].tx.release(req)

    for args in [("A", 0, 1, 1), ("B", 0, 2, 1), ("C", 2, 1, 0)]:
        sim.process(send(*args))
    sim.process(send("E", 1, 0, 0, sim.process(send("D", 1, 0, 8))))
    sim.process(fan())
    for proc in [hopped("G", 10.0, URGENT, False), holder("g", 10.0),
                 hopped("H", 13.0, NORMAL, True), holder("h", 13.0), holder("k", 14.5)]:
        sim.process(proc)
    end = sim.run()
    expected = [
        (1.0, "D interrupted"), (2.0, "A"), (2.0, "E"), (3.0, "C"), (4.0, "B"), (6.0, "F"),
        (11.0, "G"), (11.0, "g"), (13.0, "h"), (15.0, "k"), (15.0, "H"),
    ]
    return bool(
        out == expected and end == 16.0 and len(sim._queue) == 0 and net.messages_delivered == 8
        and [(n.bytes_sent, n.bytes_received) for n in nics] == [(2, 0), (0, 1), (0, 1)]
        and not any(r.users or r.queue for n in nics for r in (n.tx, n.rx))
    )


def _load_accel() -> Optional[Any]:
    mod = _accel.load()
    if mod is None:
        return None
    try:
        mod.setup(Event, Timeout, Process, SimulationError)
    except Exception:  # noqa: BLE001
        return None
    return mod


_CQ = _load_accel()
if _CQ is not None and not _accel_selftest(_CQ):
    _CQ = None
