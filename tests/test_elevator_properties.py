"""Property tests: no elevator may lose, duplicate, or corrupt requests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.disk import DiskDrive, DiskParams
from repro.iosched import BlockLayer, make_scheduler
from repro.sim import Simulator

SCHEDULERS = ["noop", "deadline", "cfq", "anticipatory"]


request_list = st.lists(
    st.tuples(
        # lbn and nsectors; one request in two on a 64-sector grid, so
        # that requests abut and merge, and units join (coalesce)
        st.one_of(st.integers(min_value=0, max_value=400_000), st.sampled_from(range(0, 640, 64))),
        st.one_of(st.integers(min_value=1, max_value=512), st.just(64)),
        st.sampled_from(["R", "W"]),
        st.integers(min_value=0, max_value=5),        # stream
        st.one_of(st.floats(min_value=0.0, max_value=0.05), st.just(0.0)),  # arrival
        st.booleans(),                                # background (async)
    ),
    min_size=1,
    max_size=40,
)


@pytest.mark.parametrize("sched_name", SCHEDULERS)
@given(reqs=request_list)
@settings(max_examples=30, deadline=None)
def test_all_requests_complete_exactly_once(sched_name, reqs):
    sim = Simulator()
    drive = DiskDrive(sim, DiskParams(capacity_bytes=2 * 10**9))
    layer = BlockLayer(sim, drive, make_scheduler(sched_name))
    completions = []

    def submitter():
        t0 = sim.now
        events = []
        for lbn, n, op, stream, dt, bg in sorted(reqs, key=lambda r: r[-2]):
            target = t0 + dt
            if target > sim.now:
                yield sim.timeout(target - sim.now)
            events.append((lbn, n, layer.submit(lbn, n, op=op, stream_id=stream, is_async=bg)))
        for lbn, n, ev in events:
            t = yield ev
            completions.append((lbn, n, t))

    p = sim.process(submitter())
    sim.run_until_event(p, limit=600.0)
    assert len(completions) == len(reqs)
    # Bytes conserved: the drive serviced every submitted sector (at least
    # their union) and none twice (at most their sum; a merged unit covers
    # overlapping requests once).
    union = set()
    for lbn, n, *_ in reqs:
        union.update(range(lbn, lbn + n))
    assert 512 * len(union) <= drive.stats.total_bytes <= 512 * sum(r[1] for r in reqs)
    assert layer.stats.n_submitted == len(reqs)
    # The queue drained, and every request either opened a unit or was
    # merged into one (the merge count a scheduler keeps as it goes).
    assert len(layer.scheduler) == 0
    assert layer.scheduler.n_merges == len(reqs) - layer.stats.n_units_served
    # Every completion timestamp is sane.
    assert all(t >= 0 for _, _, t in completions)


@pytest.mark.parametrize("sched_name", SCHEDULERS)
@given(reqs=request_list)
@settings(max_examples=20, deadline=None)
def test_served_sectors_cover_submissions(sched_name, reqs):
    """Units dispatched to the disk cover every submitted request's range."""
    sim = Simulator()
    served = []
    drive = DiskDrive(
        sim,
        DiskParams(capacity_bytes=2 * 10**9),
        on_access=lambda t, lbn, n, op: served.append((lbn, n)),
    )
    layer = BlockLayer(sim, drive, make_scheduler(sched_name))

    def submitter():
        events = [
            layer.submit(lbn, n, op=op, stream_id=stream, is_async=bg)
            for lbn, n, op, stream, _, bg in reqs
        ]
        for ev in events:
            yield ev

    sim.run_until_event(sim.process(submitter()), limit=600.0)
    # Build the served coverage set (ranges can overlap across ops).
    covered = []
    for lbn, n in served:
        covered.append((lbn, lbn + n))
    covered.sort()

    def is_covered(lo, hi):
        pos = lo
        for s, e in covered:
            if s <= pos < e:
                pos = max(pos, e)
                if pos >= hi:
                    return True
        return pos >= hi

    for lbn, n, op, _, _, _ in reqs:
        assert is_covered(lbn, lbn + n), f"range [{lbn},{lbn+n}) not serviced"
