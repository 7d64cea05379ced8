"""Tests for the elevator algorithms and the block layer dispatch loop."""

import pytest

from repro.disk import DiskDrive, DiskParams
from repro.iosched import (
    AnticipatoryScheduler,
    BlockLayer,
    CfqScheduler,
    DeadlineScheduler,
    NoopScheduler,
    anticipatory,
    cfq,
    deadline,
    make_scheduler,
)
from repro.sim import Simulator
from repro.trace import BlkTrace


def make_layer(sim, sched, capacity_mb=256, trace=None):
    """A block layer over a fresh drive; ``trace`` (a :class:`BlkTrace`)
    records the drive's accesses in service order."""
    drive = DiskDrive(
        sim,
        DiskParams(capacity_bytes=capacity_mb * 1024 * 1024),
        on_access=trace.hook if trace is not None else None,
    )
    return BlockLayer(sim, drive, sched), drive


# ------------------------------------------------------------------ factory


def test_make_scheduler_known_names():
    for name, cls in [
        ("noop", NoopScheduler),
        ("deadline", DeadlineScheduler),
        ("cfq", CfqScheduler),
        ("anticipatory", AnticipatoryScheduler),
    ]:
        assert isinstance(make_scheduler(name), cls)


def test_make_scheduler_unknown_name():
    with pytest.raises(ValueError, match="unknown scheduler"):
        make_scheduler("bfq")


# --------------------------------------------------------------------- noop


def test_noop_serves_fifo():
    sim = Simulator()
    trace = BlkTrace()
    layer, drive = make_layer(sim, NoopScheduler(), trace=trace)
    order = []

    def client():
        evs = []
        for lbn in (5000, 100, 9000):
            evs.append((lbn, layer.submit(lbn, 8)))
        for lbn, ev in evs:
            yield ev
            order.append(lbn)

    sim.run_until_event(sim.process(client()))
    # FIFO service: completion order equals submission order.
    lbns = [r.lbn for r in trace.records]
    assert lbns == [5000, 100, 9000]


def test_noop_merges_sequential_tail():
    sim = Simulator()
    layer, drive = make_layer(sim, NoopScheduler())

    def client():
        a = layer.submit(100, 8)
        b = layer.submit(108, 8)  # contiguous with a
        yield a
        yield b

    sim.run_until_event(sim.process(client()))
    assert drive.stats.n_requests == 1  # served as one merged unit
    assert layer.scheduler.n_merges == 1


# ----------------------------------------------------------------- deadline


def test_deadline_sorts_batch():
    """A burst of scattered requests is served in ascending LBN order."""
    sim = Simulator()
    trace = BlkTrace()
    layer, drive = make_layer(sim, DeadlineScheduler(), trace=trace)
    lbns = [90_000, 100, 50_000, 20_000, 70_000]

    def client():
        evs = [layer.submit(lbn, 8) for lbn in lbns]
        for ev in evs:
            yield ev

    sim.run_until_event(sim.process(client()))
    served = [r.lbn for r in trace.records]
    assert served == sorted(lbns)


def test_deadline_expired_read_preempts(monkeypatch):
    """A request whose deadline passed is served before sorted order."""
    monkeypatch.setattr(deadline, "READ_EXPIRE_S", 0.05)
    monkeypatch.setattr(deadline, "FIFO_BATCH", 1)
    sim = Simulator()
    sched = DeadlineScheduler()
    layer, drive = make_layer(sim, sched)
    done = []

    def client():
        # Far-away request first; it will expire while a stream of nearby
        # requests keeps arriving.
        far = layer.submit(400_000, 8)

        def on_far(ev):
            done.append(("far", sim.now))

        near_evs = []
        for i in range(30):
            near_evs.append(layer.submit(i * 16, 8))
            yield sim.timeout(0.004)
        yield far
        done.append(("far", sim.now))
        for ev in near_evs:
            yield ev

    sim.run_until_event(sim.process(client()))
    assert done and done[0][1] < 0.3  # served well before the near stream drains


def test_deadline_expired_fifo_head_leaves_sorted_order(monkeypatch):
    """Once a unit's deadline passes, the FIFO head is served ahead of
    C-LOOK order and taken out of the sorted queue."""
    from repro.iosched.request import BlockRequest

    monkeypatch.setattr(deadline, "FIFO_BATCH", 1)
    sched = DeadlineScheduler()
    sim = Simulator()

    def add(lbn, now):
        sched.add(BlockRequest(lbn=lbn, nsectors=8, op="R", stream_id=0,
                               submit_time=now, completion=sim.event()), now)

    add(900_000, 0.0)  # expires at READ_EXPIRE_S = 0.5
    for lbn in (100, 200, 300):
        add(lbn, 0.2)  # expire at 0.7
    assert sched.decide(0.3, head_lbn=0).lbn == 100  # nothing expired: C-LOOK
    far = sched.decide(0.6, head_lbn=108)
    assert far.lbn == 900_000 and not far.queued  # expired head, out of order
    assert len(sched) == 2
    # Past 0.7 every head has expired: served in FIFO order, not C-LOOK
    # order from the head (which would pick 300 first).
    assert [sched.decide(0.8, head_lbn=250).lbn for _ in range(2)] == [200, 300]
    assert sched.decide(0.9, head_lbn=0) is None


def test_deadline_gives_each_unit_sharing_a_start_sector_a_deadline(monkeypatch):
    """A second, overlapping read at a queued unit's start sector is a new
    unit; its own FIFO entry must serve it by its deadline."""
    from repro.iosched.request import BlockRequest

    monkeypatch.setattr(deadline, "FIFO_BATCH", 1)
    sched = DeadlineScheduler()
    sim = Simulator()

    def add(lbn, nsectors, now):
        sched.add(BlockRequest(lbn=lbn, nsectors=nsectors, op="R", stream_id=0,
                               submit_time=now, completion=sim.event()), now)

    add(900_000, 8, 0.0)  # expires at READ_EXPIRE_S = 0.5
    add(900_000, 16, 0.1)  # overlaps: a second unit at 900_000, due 0.6
    add(100, 8, 0.2)  # due 0.7
    first = sched.decide(0.55, head_lbn=0)  # expired head, out of C-LOOK order
    assert (first.lbn, first.nsectors) == (900_000, 8)
    second = sched.decide(0.65, head_lbn=0)  # the overlapping unit's own deadline
    assert (second.lbn, second.nsectors) == (900_000, 16)
    assert sched.decide(0.66, head_lbn=0).lbn == 100


def test_deadline_write_not_starved(monkeypatch):
    monkeypatch.setattr(deadline, "WRITES_STARVED", 1)
    sim = Simulator()
    sched = DeadlineScheduler()
    trace = BlkTrace()
    layer, drive = make_layer(sim, sched, trace=trace)

    def client():
        w = layer.submit(200_000, 8, op="W")
        reads = [layer.submit(i * 16, 8, op="R") for i in range(40)]
        yield w
        for ev in reads:
            yield ev

    sim.run_until_event(sim.process(client()))
    ops = [r.op for r in trace.records]
    assert "W" in ops[:40]


# ---------------------------------------------------------------------- cfq


def test_cfq_round_robins_streams(monkeypatch):
    """Two streams in distinct regions each get contiguous service runs."""
    monkeypatch.setattr(cfq, "SLICE_SYNC_S", 0.05)
    monkeypatch.setattr(cfq, "SLICE_IDLE_S", 0.002)
    sim = Simulator()
    sched = CfqScheduler()
    trace = BlkTrace()
    layer, drive = make_layer(sim, sched, trace=trace)

    def client():
        evs = []
        for i in range(20):
            evs.append(layer.submit(1_000 + i * 24, 8, stream_id=1))
            evs.append(layer.submit(300_000 + i * 24, 8, stream_id=2))
        for ev in evs:
            yield ev

    sim.run_until_event(sim.process(client()))
    served = [r.lbn for r in trace.records]
    # Service alternates between region runs, not per-request ping-pong:
    # count transitions between the two regions.
    regions = [0 if lbn < 150_000 else 1 for lbn in served]
    transitions = sum(1 for a, b in zip(regions, regions[1:]) if a != b)
    assert transitions < len(served) / 2


def test_cfq_idles_for_active_stream(monkeypatch):
    """CFQ waits SLICE_IDLE_S for the active stream's next synchronous
    request instead of immediately seeking to another stream."""
    monkeypatch.setattr(cfq, "SLICE_SYNC_S", 0.5)
    monkeypatch.setattr(cfq, "SLICE_IDLE_S", 0.01)
    sim = Simulator()
    sched = CfqScheduler()
    layer, drive = make_layer(sim, sched)
    order = []

    def stream1():
        # Synchronous sequential reader: issues next request right after
        # the previous completes (well within the idle window).
        pos = 1000
        for _ in range(5):
            ev = layer.submit(pos, 8, stream_id=1)
            yield ev
            order.append(("s1", pos))
            pos += 8

    def stream2():
        yield sim.timeout(0.001)
        ev = layer.submit(500_000, 8, stream_id=2)
        yield ev
        order.append(("s2", 500_000))

    p1 = sim.process(stream1())
    p2 = sim.process(stream2())
    sim.run_until_event(p1)
    sim.run_until_event(p2)
    # Stream 1's five sequential requests are served as an unbroken run
    # despite stream 2's distant request arriving in between.
    s1_positions = [i for i, (tag, _) in enumerate(order) if tag == "s1"]
    assert s1_positions == [0, 1, 2, 3, 4]


def test_cfq_slice_expiry_rotates(monkeypatch):
    monkeypatch.setattr(cfq, "SLICE_SYNC_S", 0.02)
    monkeypatch.setattr(cfq, "SLICE_IDLE_S", 0.001)
    sim = Simulator()
    sched = CfqScheduler()
    trace = BlkTrace()
    layer, drive = make_layer(sim, sched, trace=trace)

    def client():
        evs = []
        for i in range(50):
            evs.append(layer.submit(1_000 + i * 8, 8, stream_id=1))
        for i in range(5):
            evs.append(layer.submit(300_000 + i * 8, 8, stream_id=2))
        for ev in evs:
            yield ev

    sim.run_until_event(sim.process(client()))
    served = [r.lbn for r in trace.records]
    first_s2 = next(i for i, lbn in enumerate(served) if lbn >= 150_000)
    # Stream 2 is not starved until all 50 stream-1 requests are done.
    assert first_s2 < 50


# -------------------------------------------------------------- anticipatory


def test_anticipatory_waits_for_sequential_reader(monkeypatch):
    monkeypatch.setattr(anticipatory, "ANTIC_EXPIRE_S", 0.01)
    sim = Simulator()
    sched = AnticipatoryScheduler()
    layer, drive = make_layer(sim, sched)
    order = []

    def reader():
        pos = 1000
        for _ in range(4):
            ev = layer.submit(pos, 8, stream_id=1)
            yield ev
            order.append(("r", pos))
            pos += 8

    def disturber():
        yield sim.timeout(0.0005)
        ev = layer.submit(400_000, 8, stream_id=2)
        yield ev
        order.append(("d", 400_000))

    p1 = sim.process(reader())
    p2 = sim.process(disturber())
    sim.run_until_event(p1)
    sim.run_until_event(p2)
    r_idx = [i for i, (tag, _) in enumerate(order) if tag == "r"]
    assert r_idx == [0, 1, 2, 3]


# ------------------------------------------------------------- block layer


def test_blocklayer_completion_values_are_times():
    sim = Simulator()
    layer, _ = make_layer(sim, NoopScheduler())
    got = []

    def client():
        t = yield layer.submit(100, 8)
        got.append(t)

    sim.run_until_event(sim.process(client()))
    assert got and got[0] == pytest.approx(sim.now)


def test_blocklayer_stats_track_submissions():
    sim = Simulator()
    layer, _ = make_layer(sim, NoopScheduler())

    def client():
        evs = [layer.submit(i * 64, 8) for i in range(10)]
        for ev in evs:
            yield ev

    sim.run_until_event(sim.process(client()))
    assert layer.stats.n_submitted == 10
    assert layer.stats.n_units_served >= 1
    assert layer.stats.mean_queue_depth >= 1


def test_blocklayer_deep_queue_enables_sorting_throughput():
    """The motivating-example effect in miniature: the same random request
    set completes faster submitted as one burst (deep queue, sortable) than
    trickled synchronously (depth 1)."""
    import numpy as np

    rng = np.random.default_rng(3)
    lbns = [int(x) for x in rng.integers(0, 400_000, size=80)]

    # Burst submission.
    sim = Simulator()
    layer, _ = make_layer(sim, DeadlineScheduler(), capacity_mb=512)

    def burst():
        evs = [layer.submit(lbn, 32) for lbn in lbns]
        for ev in evs:
            yield ev

    sim.run_until_event(sim.process(burst()))
    t_burst = sim.now

    # Synchronous trickle.
    sim2 = Simulator()
    layer2, _ = make_layer(sim2, DeadlineScheduler(), capacity_mb=512)

    def trickle():
        for lbn in lbns:
            yield layer2.submit(lbn, 32)

    sim2.run_until_event(sim2.process(trickle()))
    assert t_burst < sim2.now * 0.7
