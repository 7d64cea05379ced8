"""Unit tests for sim resources and stores."""

import pytest

from repro.sim import (
    FilterStore,
    HeapQueue,
    PriorityResource,
    Resource,
    SimulationError,
    Simulator,
    Store,
)
from repro.sim import core as sim_core


# ---------------------------------------------------------------- Resource


def test_resource_grants_up_to_capacity():
    sim = Simulator()
    res = Resource(sim, capacity=2)
    log = []

    def user(tag, hold):
        req = res.request()
        yield req
        log.append(("acq", tag, sim.now))
        yield sim.timeout(hold)
        res.release(req)
        log.append(("rel", tag, sim.now))

    for tag, hold in (("a", 5), ("b", 5), ("c", 5)):
        sim.process(user(tag, hold))
    sim.run()
    # a and b acquire at t=0; c must wait until t=5.
    assert ("acq", "a", 0) in log and ("acq", "b", 0) in log
    assert ("acq", "c", 5) in log


def test_resource_fifo_order():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    order = []

    def user(tag):
        req = res.request()
        yield req
        order.append(tag)
        yield sim.timeout(1)
        res.release(req)

    for tag in "abcd":
        sim.process(user(tag))
    sim.run()
    assert order == list("abcd")


def test_resource_count():
    sim = Simulator()
    res = Resource(sim, capacity=3)

    def user():
        req = res.request()
        yield req
        yield sim.timeout(10)
        res.release(req)

    sim.process(user())
    sim.process(user())
    sim.run(until=1)
    assert res.count == 2


def test_resource_release_queued_request_cancels():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    holder = res.request()  # granted immediately
    waiting = res.request()  # queued
    res.release(waiting)  # cancel the queued one
    assert len(res.queue) == 0
    res.release(holder)
    assert res.count == 0


def test_resource_release_unknown_raises():
    sim = Simulator()
    r1 = Resource(sim, capacity=1)
    r2 = Resource(sim, capacity=1)
    req = r1.request()
    with pytest.raises(SimulationError):
        r2.release(req)


def test_resource_bad_capacity():
    sim = Simulator()
    with pytest.raises(SimulationError):
        Resource(sim, capacity=0)


def test_resource_context_manager():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    order = []

    def user(tag):
        with res.request() as req:
            yield req
            order.append(tag)
            yield sim.timeout(1)

    sim.process(user("x"))
    sim.process(user("y"))
    sim.run()
    assert order == ["x", "y"]


def _kernels():
    """Queue factories for both kernels.  On the C kernel a capacity-1
    Resource requests and releases through the accelerator."""
    return [
        pytest.param(HeapQueue, id="heap"),
        pytest.param(
            lambda: sim_core._CQ.CalQ(),
            id="c",
            marks=pytest.mark.skipif(sim_core._CQ is None, reason="no C accelerator"),
        ),
    ]


@pytest.mark.parametrize("make_queue", _kernels())
def test_capacity_one_grants_fifo_and_cancels_on_both_kernels(make_queue):
    sim = Simulator(queue=make_queue())
    res = Resource(sim, capacity=1)
    log = []

    def user(tag, hold, cancel_at=None):
        req = res.request()
        if cancel_at is not None:
            yield sim.timeout(cancel_at)
            res.release(req)  # still queued: a cancel
            log.append((sim.now, tag, "cancelled", req.triggered))
            return
        yield req
        log.append((sim.now, tag, "got", req.value is req))
        yield sim.timeout(hold)
        res.release(req)

    def prober():
        # A grant is a NORMAL push: an URGENT hop queued after it still
        # runs first, and a NORMAL timeout queued after it runs after.
        req = res.request()
        hop, late = sim.urgent_hop(), sim.timeout(0)
        yield hop
        log.append((sim.now, "hop", req.processed))
        yield late
        log.append((sim.now, "late", req.processed))
        res.release(req)

    sim.process(user("a", 2.0))
    sim.process(user("b", 0.0, cancel_at=1.0))
    sim.process(user("c", 1.0))
    sim.process(user("d", 1.0))
    sim.run()
    sim.process(prober())
    sim.run()
    assert log == [
        (0.0, "a", "got", True),
        (1.0, "b", "cancelled", False),
        (2.0, "c", "got", True),
        (3.0, "d", "got", True),
        (4.0, "hop", False),
        (4.0, "late", True),
    ]
    assert res.count == 0 and not res.queue
    req = res.request()
    res.release(req)
    with pytest.raises(SimulationError):
        res.release(req)  # double release


def test_capacity_one_takes_python_path_under_a_watchdog():
    """A watchdog attached after the resource was built still sees every
    request and grant: the C request/release defer to the methods."""
    from repro.guard.watchdog import StallWatchdog

    sim = Simulator()
    res = Resource(sim, capacity=1)
    wd = StallWatchdog(sim)
    first, second = res.request(), res.request()
    assert id(first) in wd._granted and id(second) in wd._requested
    res.release(first)
    assert id(second) in wd._granted and id(first) not in wd._granted


# ------------------------------------------------------- PriorityResource


def test_priority_resource_orders_waiters():
    sim = Simulator()
    res = PriorityResource(sim, capacity=1)
    order = []

    def holder():
        req = res.request(priority=0)
        yield req
        yield sim.timeout(10)
        res.release(req)

    def user(tag, prio, start):
        yield sim.timeout(start)
        req = res.request(priority=prio)
        yield req
        order.append(tag)
        res.release(req)

    sim.process(holder())
    sim.process(user("low", 5, 1))
    sim.process(user("high", 1, 2))
    sim.process(user("mid", 3, 3))
    sim.run()
    assert order == ["high", "mid", "low"]


def test_priority_resource_fifo_within_priority():
    sim = Simulator()
    res = PriorityResource(sim, capacity=1)
    order = []

    def holder():
        req = res.request()
        yield req
        yield sim.timeout(5)
        res.release(req)

    def user(tag):
        req = res.request(priority=1)
        yield req
        order.append(tag)
        res.release(req)

    sim.process(holder())
    for tag in "abc":
        sim.process(user(tag))
    sim.run()
    assert order == ["a", "b", "c"]


def test_priority_resource_cancelled_request_never_granted():
    # Cancellation is a lazy tombstone: the entry stays in the wait heap
    # until it surfaces at dequeue.  It must be skipped there, the slot
    # must go to the next live waiter, and a second release of the
    # cancelled request must be rejected.
    sim = Simulator()
    res = PriorityResource(sim, capacity=1)
    order = []

    def holder():
        req = res.request(priority=0)
        yield req
        yield sim.timeout(10)
        res.release(req)

    def winner():
        yield sim.timeout(1)
        req = res.request(priority=5)
        yield req
        order.append("winner")
        res.release(req)

    def quitter():
        yield sim.timeout(2)
        req = res.request(priority=1)  # most urgent waiter...
        yield sim.timeout(3)
        res.release(req)  # ...retracts before ever being granted
        with pytest.raises(SimulationError, match="unknown request"):
            res.release(req)
        assert not req.processed
        yield sim.timeout(100)
        assert not req.processed  # tombstone was skipped, never granted

    sim.process(holder())
    sim.process(winner())
    sim.process(quitter())
    sim.run()
    assert order == ["winner"]


def test_priority_resource_mass_cancel_compacts_heap():
    # Heavy cancel churn triggers the tombstone purge; survivors are
    # still served in (priority, arrival) order.
    sim = Simulator()
    res = PriorityResource(sim, capacity=1)
    order = []

    def holder():
        req = res.request(priority=-1)
        yield req
        yield sim.timeout(10)
        res.release(req)

    def survivor(tag, prio):
        req = res.request(priority=prio)
        yield req
        order.append(tag)
        res.release(req)

    sim.process(holder())

    def churn():
        yield sim.timeout(1)
        doomed = [res.request(priority=0) for _ in range(300)]
        for req in doomed:
            res.release(req)  # cancel every one while still queued
        assert len(res._pq) < 300  # compaction actually ran

    sim.process(churn())
    sim.process(survivor("hi", 1))
    sim.process(survivor("lo", 2))
    sim.run()
    assert order == ["hi", "lo"]


# ---------------------------------------------------------------- Store


def test_store_fifo():
    sim = Simulator()
    store = Store(sim)
    got = []

    def producer():
        for i in range(3):
            yield store.put(i)
            yield sim.timeout(1)

    def consumer():
        for _ in range(3):
            item = yield store.get()
            got.append(item)

    sim.process(producer())
    sim.process(consumer())
    sim.run()
    assert got == [0, 1, 2]


def test_store_get_blocks_until_put():
    sim = Simulator()
    store = Store(sim)
    got = []

    def consumer():
        item = yield store.get()
        got.append((sim.now, item))

    def producer():
        yield sim.timeout(4)
        yield store.put("x")

    sim.process(consumer())
    sim.process(producer())
    sim.run()
    assert got == [(4, "x")]


def test_store_capacity_blocks_put():
    sim = Simulator()
    store = Store(sim, capacity=1)
    log = []

    def producer():
        yield store.put("a")
        log.append(("put-a", sim.now))
        yield store.put("b")
        log.append(("put-b", sim.now))

    def consumer():
        yield sim.timeout(5)
        item = yield store.get()
        log.append(("got", item, sim.now))

    sim.process(producer())
    sim.process(consumer())
    sim.run()
    assert ("put-a", 0) in log
    assert ("got", "a", 5) in log
    assert ("put-b", 5) in log


def test_store_bad_capacity():
    sim = Simulator()
    with pytest.raises(SimulationError):
        Store(sim, capacity=0)


def test_store_len():
    sim = Simulator()
    store = Store(sim)
    store.put(1)
    store.put(2)
    assert len(store) == 2


# ------------------------------------------------------------ FilterStore


def test_filter_store_matches_predicate():
    sim = Simulator()
    store = FilterStore(sim)
    got = []

    def consumer():
        item = yield store.get(lambda x: x % 2 == 0)
        got.append(item)

    def producer():
        yield store.put(1)
        yield store.put(3)
        yield sim.timeout(1)
        yield store.put(4)

    sim.process(consumer())
    sim.process(producer())
    sim.run()
    assert got == [4]
    assert list(store.items) == [1, 3]


def test_filter_store_default_predicate():
    sim = Simulator()
    store = FilterStore(sim)
    store.put("only")
    got = []

    def consumer():
        got.append((yield store.get()))

    sim.process(consumer())
    sim.run()
    assert got == ["only"]


def test_filter_store_multiple_waiters_distinct_predicates():
    sim = Simulator()
    store = FilterStore(sim)
    got = {}

    def consumer(name, pred):
        got[name] = yield store.get(pred)

    sim.process(consumer("even", lambda x: x % 2 == 0))
    sim.process(consumer("odd", lambda x: x % 2 == 1))

    def producer():
        yield sim.timeout(1)
        yield store.put(7)
        yield store.put(8)

    sim.process(producer())
    sim.run()
    assert got == {"even": 8, "odd": 7}
