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

The schedule is the C calendar queue of the optional accelerator
(:mod:`repro.sim._accel`, built on first use when a C compiler is
available) or, without it, the pure-Python binary heap
:class:`repro.sim.equeue.HeapQueue`; set ``REPRO_SIM_ACCEL=0`` to force
pure Python.  Both produce the same order, so every simulated result is
identical either way.  Events are dispatched in *cohorts* -- all events
sharing one ``(time, priority)`` band are drained in a single inner loop
so per-event bookkeeping (stop check, sanitizer probe, clock write) is
amortized per band.  One loop, :meth:`Simulator._drive`, serves
``step``, ``run`` and ``run_until_event``; they differ only in when it
stops.  The accelerator's ``drive`` is the same loop in C and runs
whenever the sanitizer is off.

Performance: the inner loop is allocation-light.  :class:`Timeout` events
are recycled through a per-simulator free list (see
:meth:`Simulator.timeout`); recycling is guarded by a CPython refcount
check so an event that any other code still holds is never reused.

Sanitizing: ``Simulator(sanitize=True)`` (or ``REPRO_SANITIZE=1``)
attaches a :class:`repro.devtools.sanitizer.SimSanitizer` that validates
dispatch-time invariants (clock monotonicity, strict schedule-key
ordering, no double dispatch) and tracks process/resource lifecycle.
Service loops that intentionally never finish must be spawned with
``daemon=True`` so the sanitizer's leak check skips them.

Observing: ``Simulator(observe=obs)`` attaches a
:class:`repro.obs.Observability` (metrics registry + span tracer) that
components publish into; the default is the process-wide no-op
:data:`repro.obs.NULL_OBS`, so an unobserved simulator pays nothing.
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
from typing import TYPE_CHECKING, Any, Callable, Optional, Union

from repro.sim import _accel
from repro.sim.equeue import EventQueue, HeapQueue

if TYPE_CHECKING:  # pragma: no cover
    from repro.devtools.sanitizer import SimSanitizer
    from repro.obs import NullObservability, Observability

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


class _Initialize(Event):
    """Internal event used to start a process at creation time."""

    __slots__ = ()

    def __init__(self, sim: "Simulator", process: "Process") -> None:
        super().__init__(sim)
        assert self.callbacks is not None
        self.callbacks.append(process._resume_cb)
        self._triggered = True
        self._ok = True
        self._value = None
        sim._enqueue(self, delay=0.0, priority=URGENT)


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
        if not hasattr(gen, "send") or not hasattr(gen, "throw"):
            raise SimulationError(f"process body must be a generator, got {gen!r}")
        super().__init__(sim)
        self.gen = gen
        self.name = name or getattr(gen, "__name__", "process")
        self.daemon = daemon
        #: The event this process is currently waiting on (None if running
        #: or finished).  Used by interrupt() to detach.
        self._target: Optional[Event] = None
        # Pre-bound hot-path callables: binding a method allocates, and
        # _resume is registered as a callback once per yield.
        self._resume_cb = self._resume
        self._send = gen.send
        self._throw = gen.throw
        if sim._sanitizer is not None:
            sim._sanitizer.on_process_created(self)
        if sim._watchdog is not None:
            sim._watchdog.on_process_created(self)
        _Initialize(sim, self)

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
        interrupt_ev.callbacks.append(self._resume_cb)
        interrupt_ev._triggered = True
        interrupt_ev._ok = False
        interrupt_ev._value = Interrupt(cause)
        # Detach from the current target so its eventual firing does not
        # resume us twice.
        if self._target is not None and self._target.callbacks is not None:
            try:
                self._target.callbacks.remove(self._resume_cb)
            except ValueError:  # pragma: no cover - defensive
                pass
        self._target = None
        self.sim._enqueue(interrupt_ev, delay=0.0, priority=URGENT)

    # -- internals -----------------------------------------------------

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
            self.succeed(exc.value, priority=URGENT)
            return
        except BaseException as exc:
            sim._active = None
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
            else:
                ev.callbacks.append(self._check)

    def _check(self, event: Event) -> None:
        raise NotImplementedError

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
            return
        self.succeed(self._collect())


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
    components publish metrics and spans into; the default is the shared
    no-op :data:`repro.obs.NULL_OBS`.

    ``queue=`` is a test seam: an event-queue instance implementing the
    cohort contract documented in :mod:`repro.sim.equeue` (a
    :class:`HeapQueue` or the accelerator's ``CalQ``).  The default
    ``None`` takes the C ``CalQ`` when the accelerator is available and a
    :class:`HeapQueue` otherwise.  Dispatch order is bit-identical across
    queues.
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
            # Arming the ownership checker implies sanitizing: the
            # checker rides the sanitizer's process-creation hooks.
            sanitize = bool(
                os.environ.get("REPRO_SANITIZE")
                or os.environ.get("REPRO_SANITIZE_OWNERSHIP")
            )
        self._sanitizer: Optional["SimSanitizer"]
        if sanitize:
            # Imported lazily: devtools depends on this module.
            from repro.devtools.sanitizer import SimSanitizer

            self._sanitizer = SimSanitizer(self)
        else:
            self._sanitizer = None
        #: Stall watchdog (repro.guard.watchdog) when one is installed;
        #: None nominally, so unguarded runs pay one attribute load.
        self._watchdog = None
        self.obs: "Union[Observability, NullObservability]"
        if observe is not None and observe.enabled:
            self.obs = observe
            observe.bind(self)
        else:
            # Imported lazily: obs depends on nothing in this module at
            # runtime, but the kernel should not import it eagerly.
            from repro.obs import NULL_OBS

            self.obs = NULL_OBS
        # -- pending-event schedule ------------------------------------
        if isinstance(queue, str):
            raise SimulationError(f"queue= takes an event-queue instance, not {queue!r}")
        if queue is None:
            queue = _CQ.CalQ() if _CQ is not None else HeapQueue()
        self._queue: EventQueue = queue
        #: C accelerator module when the schedule is a C CalQ, else None.
        self._accel: Optional[Any] = (
            _CQ if _CQ is not None and isinstance(queue, _CQ.CalQ) else None
        )
        if self._accel is not None:
            # C fast path for sim.timeout(): pooled reset + push without
            # entering the interpreter.  Shadows the bound method; the
            # semantics (negative-delay check, pooled field reset) are
            # mirrored exactly in _cq.c.
            self.timeout = self._accel.make_timeout(  # type: ignore[method-assign]
                self, self._queue, self._pool
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

    @property
    def watchdog(self):
        """The attached stall watchdog, or None when none is installed."""
        return self._watchdog

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

    def process(
        self, gen: Generator, name: Optional[str] = None, daemon: bool = False
    ) -> Process:
        """Launch a generator as a simulation process.

        Pass ``daemon=True`` for intentional forever-running service
        loops so the sanitizer's leak check skips them.
        """
        return Process(self, gen, name=name, daemon=daemon)

    def all_of(self, events: list[Event]) -> Event:
        return all_of(self, events)

    def any_of(self, events: list[Event]) -> Event:
        return any_of(self, events)

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

    Exercises ordering, join (StopIteration -> URGENT succeed, which
    preempts the draining NORMAL band), the pooled timeout callable, and
    the drained return.  Any mismatch or exception disables the
    accelerator for the process; the pure-Python kernel is always safe.
    """
    try:
        sim = Simulator(sanitize=False, queue=mod.CalQ())
        if sim._accel is not mod:
            return False
        out: list[tuple[float, Any]] = []

        def worker(tag: str, d: float) -> Generator:
            yield sim.timeout(d)
            out.append((sim.now, tag))

        def joiner() -> Generator:
            proc = sim.process(worker("x", 2.0))
            value = yield proc
            out.append((sim.now, ("join", value)))

        sim.process(worker("b", 3.0))
        sim.process(worker("a", 1.0))
        sim.process(joiner())
        end = sim.run()
        expected = [(1.0, "a"), (2.0, "x"), (2.0, ("join", None)), (3.0, "b")]
        return bool(out == expected and end == 3.0 and len(sim._queue) == 0)
    except Exception:  # noqa: BLE001 - any failure disables the accelerator
        return False


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
