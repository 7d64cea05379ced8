"""Edge-case tests: scheduler corner behaviour and kernel limits."""

import pytest

from repro.disk import DiskDrive, DiskParams
from repro.iosched import BlockLayer, CfqScheduler, DeadlineScheduler, cfq, make_scheduler
from repro.sim import SimulationError, Simulator
from repro.trace import BlkTrace


def make_layer(sim, sched, trace=None):
    drive = DiskDrive(
        sim,
        DiskParams(capacity_bytes=2 * 10**9),
        on_access=trace.hook if trace is not None else None,
    )
    return BlockLayer(sim, drive, sched), drive


def test_run_until_event_time_limit():
    sim = Simulator()

    def slow():
        yield sim.timeout(100)

    p = sim.process(slow())
    with pytest.raises(SimulationError, match="time limit"):
        sim.run_until_event(p, limit=1.0)


def test_cfq_async_only_workload():
    """Pure async (readahead-style) requests are served without idling."""
    sim = Simulator()
    layer, drive = make_layer(sim, CfqScheduler())

    def client():
        evs = [layer.submit(i * 1024, 64, is_async=True) for i in range(10)]
        for ev in evs:
            yield ev

    sim.run_until_event(sim.process(client()))
    assert drive.stats.n_requests >= 1
    # Service proceeded promptly: no 8 ms idle gaps for async work.
    assert sim.now < 0.2


def test_cfq_sync_preempts_queued_async():
    """A sync request never waits behind the whole async backlog."""
    sim = Simulator()
    layer, drive = make_layer(sim, CfqScheduler())
    order = []

    def client():
        async_evs = [
            layer.submit(100_000 + i * 2048, 1024, is_async=True) for i in range(12)
        ]
        for ev in async_evs:
            def on(ev=ev):
                pass
        yield sim.timeout(0.001)
        sync_ev = layer.submit(500, 8, stream_id=1)
        t0 = sim.now
        yield sync_ev
        order.append(("sync", sim.now - t0))
        for ev in async_evs:
            yield ev

    sim.run_until_event(sim.process(client()))
    # The sync request completed well before the ~12 x 7ms async backlog
    # would have drained.
    assert order[0][1] < 0.05


def test_cfq_think_time_disables_idling():
    """A slow-thinking stream does not earn idle windows."""
    sched = CfqScheduler()
    sim = Simulator()
    layer, drive = make_layer(sim, sched)

    def slow_reader():
        pos = 0
        for _ in range(5):
            ev = layer.submit(pos, 8, stream_id=1)
            yield ev
            yield sim.timeout(0.1)  # thinks far longer than SLICE_IDLE_S
            pos += 10_000

    def other():
        yield sim.timeout(0.005)
        for i in range(5):
            ev = layer.submit(400_000 + i * 1000, 8, stream_id=2)
            yield ev
            yield sim.timeout(0.1)

    p1 = sim.process(slow_reader())
    p2 = sim.process(other())
    sim.run_until_event(p1)
    sim.run_until_event(p2)
    st = sched._streams[1]
    assert st.ttime_mean > cfq.SLICE_IDLE_S  # heuristic saw the gap


def test_deadline_pure_write_workload():
    sim = Simulator()
    trace = BlkTrace()
    layer, drive = make_layer(sim, DeadlineScheduler(), trace=trace)

    def client():
        evs = [layer.submit(i * 5000, 64, op="W") for i in range(20)]
        for ev in evs:
            yield ev

    sim.run_until_event(sim.process(client()))
    assert all(r.op == "W" for r in trace.records)


def test_anticipatory_write_does_not_anticipate():
    sim = Simulator()
    sched = make_scheduler("anticipatory")
    layer, drive = make_layer(sim, sched)

    def client():
        w = layer.submit(1000, 8, op="W", stream_id=1)
        yield w
        far = layer.submit(300_000, 8, op="R", stream_id=2)
        t0 = sim.now
        yield far
        return sim.now - t0

    p = sim.process(client())
    dt = sim.run_until_event(p)
    # No anticipation window after a write: the far read proceeds at
    # mechanical speed, not +6 ms anticipation.
    assert dt < 0.02


def test_blocklayer_interleaved_same_lbn_requests():
    """Duplicate-range requests both complete (no merging confusion)."""
    sim = Simulator()
    layer, drive = make_layer(sim, DeadlineScheduler())
    done = []

    def client():
        a = layer.submit(1000, 8)
        b = layer.submit(1000, 8)
        done.append((yield a))
        done.append((yield b))

    sim.run_until_event(sim.process(client()))
    assert len(done) == 2


def test_scheduler_len_tracks_queue():
    sim = Simulator()
    sched = CfqScheduler()
    layer, _ = make_layer(sim, sched)
    layer.submit(0, 8, stream_id=1)
    layer.submit(64, 8, stream_id=2)
    # Before dispatch runs, both are queued (merging may reduce this).
    assert 1 <= len(sched) <= 2
    sim.run(until=1.0)
    assert len(sched) == 0
