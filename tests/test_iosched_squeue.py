"""Unit & property tests for the sorted unit queue (merging core)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.iosched.request import BlockRequest
from repro.iosched.squeue import SortedUnitQueue
from repro.sim import Simulator


def mkreq(lbn, n, op="R", stream=0):
    sim = Simulator()
    return BlockRequest(
        lbn=lbn, nsectors=n, op=op, stream_id=stream, submit_time=0.0, completion=sim.event()
    )


def test_insert_keeps_sorted():
    q = SortedUnitQueue(max_sectors=1024)
    for lbn in (500, 100, 300):
        q.add(mkreq(lbn, 8))
    assert [u.lbn for u in q.units] == [100, 300, 500]


def test_back_merge():
    q = SortedUnitQueue(max_sectors=1024)
    q.add(mkreq(100, 8))
    q.add(mkreq(108, 8))
    assert len(q) == 1
    assert q.units[0].lbn == 100 and q.units[0].nsectors == 16
    assert q.n_merges == 1


def test_front_merge():
    q = SortedUnitQueue(max_sectors=1024)
    q.add(mkreq(108, 8))
    q.add(mkreq(100, 8))
    assert len(q) == 1
    assert q.units[0].lbn == 100 and q.units[0].nsectors == 16


def test_merge_bridges_gap_coalesces_three():
    q = SortedUnitQueue(max_sectors=1024)
    q.add(mkreq(100, 8))
    q.add(mkreq(116, 8))
    q.add(mkreq(108, 8))  # fills the hole: all three coalesce
    assert len(q) == 1
    assert q.units[0].nsectors == 24


def test_no_merge_across_ops():
    q = SortedUnitQueue(max_sectors=1024)
    q.add(mkreq(100, 8, op="R"))
    q.add(mkreq(108, 8, op="W"))
    assert len(q) == 2


def test_merge_respects_max_sectors():
    q = SortedUnitQueue(max_sectors=12)
    q.add(mkreq(100, 8))
    q.add(mkreq(108, 8))  # would make 16 > 12
    assert len(q) == 2


def test_pop_next_clook_behaviour():
    q = SortedUnitQueue(max_sectors=1024)
    for lbn in (100, 300, 500):
        q.add(mkreq(lbn, 8))
    assert q.pop_next(head_lbn=250).lbn == 300
    assert q.pop_next(head_lbn=600).lbn == 100  # wrap
    assert q.pop_next(head_lbn=0).lbn == 500
    assert q.pop_next(head_lbn=0) is None


def test_pop_clears_queued_flag():
    q = SortedUnitQueue(max_sectors=1024)
    q.add(mkreq(100, 8))
    unit = q.pop_next(head_lbn=0)
    assert unit.queued is False


def test_absorbed_unit_flagged_unqueued():
    q = SortedUnitQueue(max_sectors=1024)
    q.add(mkreq(100, 8))
    q.add(mkreq(116, 8))
    absorbed = q.units[1]
    q.add(mkreq(108, 8))
    assert absorbed.queued is False


@given(
    st.lists(
        st.tuples(st.integers(min_value=0, max_value=5000), st.integers(min_value=1, max_value=64)),
        min_size=1,
        max_size=60,
    )
)
@settings(max_examples=100, deadline=None)
def test_queue_conserves_sectors_property(reqs):
    """Total sectors in = total sectors queued; keys stay sorted; no unit
    exceeds max_sectors."""
    q = SortedUnitQueue(max_sectors=256)
    total = 0
    for lbn, n in reqs:
        q.add(mkreq(lbn, n))
        total += n
    assert sum(u.nsectors for u in q.units) == total
    keys = [u.lbn for u in q.units]
    assert keys == sorted(keys)
    assert all(u.nsectors <= 256 or len(u.parts) == 1 for u in q.units)
    # Every submitted request is in exactly one unit.
    assert sum(len(u.parts) for u in q.units) == len(reqs)
