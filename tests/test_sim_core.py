"""Unit tests for the discrete-event simulation kernel."""

import sys

import pytest

from repro.sim import (
    Event,
    HeapQueue,
    Interrupt,
    SimulationError,
    Simulator,
    all_of,
    any_of,
)
from repro.sim import core as sim_core


def test_clock_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0


def test_timeout_advances_clock():
    sim = Simulator()
    done = []

    def proc():
        yield sim.timeout(3.5)
        done.append(sim.now)

    sim.process(proc())
    sim.run()
    assert done == [3.5]
    assert sim.now == 3.5


def test_timeout_value_passthrough():
    sim = Simulator()
    got = []

    def proc():
        v = yield sim.timeout(1.0, value="payload")
        got.append(v)

    sim.process(proc())
    sim.run()
    assert got == ["payload"]


def test_negative_timeout_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.timeout(-1.0)


def test_run_until_truncates():
    sim = Simulator()
    hits = []

    def proc():
        while True:
            yield sim.timeout(1.0)
            hits.append(sim.now)

    sim.process(proc())
    sim.run(until=5.5)
    assert hits == [1.0, 2.0, 3.0, 4.0, 5.0]
    assert sim.now == 5.5


def test_run_until_past_raises():
    sim = Simulator()
    sim.run(until=10)
    with pytest.raises(SimulationError):
        sim.run(until=5)


def test_events_fire_in_time_order():
    sim = Simulator()
    order = []

    def proc(delay, tag):
        yield sim.timeout(delay)
        order.append(tag)

    sim.process(proc(3, "c"))
    sim.process(proc(1, "a"))
    sim.process(proc(2, "b"))
    sim.run()
    assert order == ["a", "b", "c"]


def test_simultaneous_events_fifo():
    """Ties in time resolve in creation order (determinism)."""
    sim = Simulator()
    order = []

    def proc(tag):
        yield sim.timeout(1.0)
        order.append(tag)

    for tag in "abcde":
        sim.process(proc(tag))
    sim.run()
    assert order == list("abcde")


def test_process_return_value():
    sim = Simulator()

    def inner():
        yield sim.timeout(2)
        return 42

    def outer(results):
        val = yield sim.process(inner())
        results.append(val)

    results = []
    sim.process(outer(results))
    sim.run()
    assert results == [42]


def test_waiting_on_finished_process():
    """Joining an already-completed process returns immediately."""
    sim = Simulator()

    def quick():
        return 7
        yield  # pragma: no cover

    def waiter(results, proc):
        yield sim.timeout(5)
        val = yield proc
        results.append((sim.now, val))

    results = []
    p = sim.process(quick())
    sim.process(waiter(results, p))
    sim.run()
    assert results == [(5, 7)]


def test_manual_event_succeed():
    sim = Simulator()
    ev = sim.event()
    got = []

    def waiter():
        got.append((yield ev))

    def trigger():
        yield sim.timeout(4)
        ev.succeed("go")

    sim.process(waiter())
    sim.process(trigger())
    sim.run()
    assert got == ["go"]


def test_event_double_trigger_rejected():
    sim = Simulator()
    ev = sim.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)


def test_event_fail_propagates_into_process():
    sim = Simulator()
    ev = sim.event()
    caught = []

    def waiter():
        try:
            yield ev
        except ValueError as exc:
            caught.append(str(exc))

    def trigger():
        yield sim.timeout(1)
        ev.fail(ValueError("boom"))

    sim.process(waiter())
    sim.process(trigger())
    sim.run()
    assert caught == ["boom"]


def test_unhandled_process_exception_surfaces():
    sim = Simulator()

    def bad():
        yield sim.timeout(1)
        raise RuntimeError("kaput")

    sim.process(bad())
    with pytest.raises(RuntimeError, match="kaput"):
        sim.run()


def test_yield_non_event_rejected():
    sim = Simulator()

    def bad():
        yield 17

    sim.process(bad())
    with pytest.raises(SimulationError):
        sim.run()


def test_interrupt_delivers_cause():
    sim = Simulator()
    log = []

    def victim():
        try:
            yield sim.timeout(100)
        except Interrupt as i:
            log.append((sim.now, i.cause))

    def attacker(p):
        yield sim.timeout(3)
        p.interrupt("deadline")

    p = sim.process(victim())
    sim.process(attacker(p))
    sim.run()
    assert log == [(3, "deadline")]


def test_interrupt_then_rewait():
    """After an interrupt the victim can wait on a fresh event."""
    sim = Simulator()
    log = []

    def victim():
        try:
            yield sim.timeout(100)
        except Interrupt:
            yield sim.timeout(2)
            log.append(sim.now)

    def attacker(p):
        yield sim.timeout(3)
        p.interrupt()

    p = sim.process(victim())
    sim.process(attacker(p))
    sim.run()
    assert log == [5]


def _kernels():
    """Queue factories for both kernels: the pure-Python heap and, when
    the accelerator is loaded, the C calendar queue (C dispatch loop)."""
    return [
        pytest.param(HeapQueue, id="heap"),
        pytest.param(
            lambda: sim_core._CQ.CalQ(),
            id="c",
            marks=pytest.mark.skipif(sim_core._CQ is None, reason="no C accelerator"),
        ),
    ]


@pytest.mark.parametrize("make_queue", _kernels())
def test_interrupt_before_first_resume(make_queue):
    """A process interrupted before it ever ran gets the interrupt after
    its first yield, and the event it was waiting on then no longer
    resumes it (it used to resume the finished process a second time)."""
    sim = Simulator(queue=make_queue())
    log = []

    def victim():
        try:
            yield sim.timeout(5.0)
            log.append(("timeout-fired", sim.now))
        except Interrupt as it:
            log.append(("interrupted", sim.now, it.cause))
            yield sim.timeout(1.0)
            log.append(("after-int", sim.now))

    def killer():
        v = sim.process(victim())
        v.interrupt("early")
        yield sim.timeout(10.0)
        log.append(("killer-done", sim.now, v.is_alive))

    sim.process(killer())
    sim.run()
    assert log == [
        ("interrupted", 0.0, "early"),
        ("after-int", 1.0),
        ("killer-done", 10.0, False),
    ]


def test_interrupt_finished_process_rejected():
    sim = Simulator()

    def quick():
        yield sim.timeout(1)

    def attacker(p):
        yield sim.timeout(5)
        with pytest.raises(SimulationError):
            p.interrupt()

    p = sim.process(quick())
    sim.process(attacker(p))
    sim.run()


def test_self_interrupt_rejected():
    sim = Simulator()

    def selfish():
        me = sim.active_process
        with pytest.raises(SimulationError):
            me.interrupt()
        yield sim.timeout(1)

    sim.process(selfish())
    sim.run()


def test_all_of_waits_for_all():
    sim = Simulator()
    got = []

    def waiter():
        evs = [sim.timeout(t, value=t) for t in (5, 1, 3)]
        res = yield all_of(sim, evs)
        got.append((sim.now, sorted(res.values())))

    sim.process(waiter())
    sim.run()
    assert got == [(5, [1, 3, 5])]


def test_any_of_fires_on_first():
    sim = Simulator()
    got = []

    def waiter():
        evs = [sim.timeout(t, value=t) for t in (5, 1, 3)]
        res = yield any_of(sim, evs)
        got.append((sim.now, list(res.values())))

    sim.process(waiter())
    sim.run()
    assert got == [(1, [1])]


def test_all_of_empty_fires_immediately():
    sim = Simulator()
    got = []

    def waiter():
        res = yield all_of(sim, [])
        got.append(res)

    sim.process(waiter())
    sim.run()
    assert got == [{}]


def test_any_of_empty_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        any_of(sim, [])


def test_run_until_event():
    sim = Simulator()

    def proc():
        yield sim.timeout(7)
        return "done"

    p = sim.process(proc())
    assert sim.run_until_event(p) == "done"
    assert sim.now == 7


def test_run_until_event_deadlock_detected():
    sim = Simulator()
    ev = sim.event()  # never triggered

    def waiter():
        yield ev

    p = sim.process(waiter())
    with pytest.raises(SimulationError, match="deadlock"):
        sim.run_until_event(p)


def test_peek():
    sim = Simulator()
    assert sim.peek() == float("inf")
    sim.timeout(9)
    assert sim.peek() == 9


def test_step_empty_raises():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.step()


def test_nested_process_trees():
    """A process spawning children and joining them all."""
    sim = Simulator()

    def leaf(d):
        yield sim.timeout(d)
        return d * 10

    def parent(results):
        kids = [sim.process(leaf(d)) for d in (1, 2, 3)]
        res = yield all_of(sim, kids)
        results.append(sorted(res.values()))

    results = []
    sim.process(parent(results))
    sim.run()
    assert results == [[10, 20, 30]]
    assert sim.now == 3


def test_process_return_survives_type_cache_miss():
    """A process that finishes right after a type-cache flush still hands
    its return value to the joiner.  The C dispatch loop must take the
    generator's StopIteration before it touches ``sim._active``: a
    type-cache miss on that attribute store clears a pending exception."""
    sim = Simulator()

    def body():
        yield sim.timeout(1.0)
        sys._clear_type_cache()
        return 42

    proc = sim.process(body())
    got = []

    def joiner():
        got.append((yield proc))

    sim.process(joiner())
    sim.run()
    assert got == [42]


def test_process_exception_survives_type_cache_miss():
    """Same as above for a body that raises: the joiner gets the original
    exception, not a TypeError from the dispatch loop."""
    sim = Simulator()

    def body():
        yield sim.timeout(1.0)
        sys._clear_type_cache()
        raise KeyError("boom")

    proc = sim.process(body())
    got = []

    def joiner():
        try:
            yield proc
        except KeyError as exc:
            got.append(exc.args)

    sim.process(joiner())
    sim.run()
    assert got == [("boom",)]


@pytest.mark.parametrize("make_queue", _kernels())
def test_flattened_constructors_match_event_init(make_queue):
    """Process, its start event and Resource requests set their Event
    slots directly.  Over every name in ``Event.__slots__`` they must hold
    what ``Event.__init__`` followed by the old triggering code gave, and
    be queued at the same time and priority, so a slot added to Event
    cannot be missed."""
    from repro.sim.core import NORMAL, URGENT, _Initialize
    from repro.sim.resources import Resource, _Request

    def reference(obj, sim, **changes):
        ref = object.__new__(type(obj))
        Event.__init__(ref, sim)
        for name, value in changes.items():
            setattr(ref, name, value)
        return ref

    def assert_same_event_slots(obj, ref):
        for name in Event.__slots__:
            got, want = getattr(obj, name), getattr(ref, name)
            assert got == want and type(got) is type(want), (type(obj).__name__, name)

    sim = Simulator(queue=make_queue())

    def body():
        yield sim.timeout(1.0)

    proc = sim.process(body())
    assert_same_event_slots(proc, reference(proc, sim))
    t, prio, (init,) = sim._queue.pop_cohort()
    assert (t, prio, type(init)) == (0.0, URGENT, _Initialize)
    # old code: _Initialize(sim, proc) -> callbacks.append(proc._resume_cb),
    # then _triggered/_ok/_value set and _enqueue(delay=0, URGENT)
    assert_same_event_slots(
        init,
        reference(init, sim, callbacks=[proc._resume_cb], _triggered=True, _ok=True, _value=None),
    )
    assert init.callbacks[0].__func__ is type(proc)._resume

    res = Resource(sim, 1)
    granted = res.request()
    queued = res.request()
    assert granted.resource is res and queued.resource is res
    # old code: a granted request is succeed(req)-ed at NORMAL priority
    assert_same_event_slots(granted, reference(granted, sim, _triggered=True, _value=granted))
    assert_same_event_slots(queued, reference(queued, sim))
    t, prio, (ev,) = sim._queue.pop_cohort()
    assert (t, prio, ev) == (0.0, NORMAL, granted)
    assert sim._queue.pop_cohort() is None
    assert type(granted) is _Request


@pytest.mark.parametrize("make_queue", _kernels())
def test_urgent_hop_preempts_the_normal_band(make_queue):
    """``sim.urgent_hop()`` resumes its caller ahead of NORMAL events
    already queued at the same time (where a process spawned there would
    first run); ``sim.timeout(0)`` resumes it behind them."""
    for hop, expected in ((True, ["caller", "other"]), (False, ["other", "caller"])):
        sim = Simulator(queue=make_queue())
        log = []

        def caller():
            yield sim.timeout(1.0)
            yield sim.urgent_hop() if hop else sim.timeout(0)
            log.append("caller")

        def other():
            yield sim.timeout(1.0)
            log.append("other")

        sim.process(caller())
        sim.process(other())
        sim.run()
        assert log == expected
        assert sim.now == 1.0
    with pytest.raises(TypeError):
        sim.urgent_hop(1.0)
