"""Unit & property tests for the sorted unit queue (merging core)."""

from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.iosched import request
from repro.iosched.request import BlockRequest
from repro.iosched.squeue import SortedUnitQueue
from repro.sim import Simulator


def mkreq(lbn, n, op="R", stream=0):
    sim = Simulator()
    return BlockRequest(
        lbn=lbn, nsectors=n, op=op, stream_id=stream, submit_time=0.0, completion=sim.event()
    )


def test_insert_keeps_sorted():
    q = SortedUnitQueue()
    for lbn in (500, 100, 300):
        q.add(mkreq(lbn, 8))
    assert [u.lbn for u in q.units] == [100, 300, 500]


def test_back_merge():
    q = SortedUnitQueue()
    q.add(mkreq(100, 8))
    q.add(mkreq(108, 8))
    assert len(q) == 1
    assert q.units[0].lbn == 100 and q.units[0].nsectors == 16
    assert q.n_merges == 1


def test_front_merge():
    q = SortedUnitQueue()
    q.add(mkreq(108, 8))
    q.add(mkreq(100, 8))
    assert len(q) == 1
    assert q.units[0].lbn == 100 and q.units[0].nsectors == 16


def test_merge_bridges_gap_coalesces_three():
    q = SortedUnitQueue()
    # add() returns the change in queued units
    assert q.add(mkreq(100, 8)) == 1
    assert q.add(mkreq(116, 8)) == 1
    assert q.add(mkreq(108, 8)) == -1  # fills the hole: all three coalesce
    assert len(q) == 1
    assert q.units[0].nsectors == 24
    assert q.n_merges == 2


def test_no_merge_across_ops():
    q = SortedUnitQueue()
    q.add(mkreq(100, 8, op="R"))
    q.add(mkreq(108, 8, op="W"))
    assert len(q) == 2


def test_merge_respects_max_sectors(monkeypatch):
    monkeypatch.setattr(request, "MAX_SECTORS", 12)
    q = SortedUnitQueue()
    q.add(mkreq(100, 8))
    q.add(mkreq(108, 8))  # would make 16 > 12
    assert len(q) == 2


def test_pop_next_clook_behaviour():
    q = SortedUnitQueue()
    for lbn in (100, 300, 500):
        q.add(mkreq(lbn, 8))
    assert q.pop_next(head_lbn=250).lbn == 300
    assert q.pop_next(head_lbn=600).lbn == 100  # wrap
    assert q.pop_next(head_lbn=0).lbn == 500
    assert q.pop_next(head_lbn=0) is None


def test_pop_clears_queued_flag():
    q = SortedUnitQueue()
    q.add(mkreq(100, 8))
    unit = q.pop_next(head_lbn=0)
    assert unit.queued is False


def test_absorbed_unit_flagged_unqueued():
    q = SortedUnitQueue()
    q.add(mkreq(100, 8))
    q.add(mkreq(116, 8))
    absorbed = q.units[1]
    q.add(mkreq(108, 8))
    assert absorbed.queued is False


def test_added_unit_and_remove_find_units_sharing_a_start_sector():
    q = SortedUnitQueue()
    assert q.add(mkreq(100, 8)) == 1
    old = q.added_unit(100)
    assert q.add(mkreq(100, 8)) == 1  # overlaps, so it cannot merge
    new = q.added_unit(100)
    assert new is not old and new.lbn == old.lbn == 100
    assert q.add(mkreq(300, 8)) == 1
    third = q.added_unit(300)
    assert q.units == [new, old, third]
    q.remove(old)
    assert q.units == [new, third] and old.queued is False
    q.remove(new)
    assert q.units == [third] and q.pop_next(head_lbn=0) is third


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
    exceeds MAX_SECTORS."""
    q = SortedUnitQueue()
    total = 0
    units = 0
    with mock.patch.object(request, "MAX_SECTORS", 256):
        for lbn, n in reqs:
            units += q.add(mkreq(lbn, n))
            total += n
    # The returned unit changes sum to the queue's length, and every add
    # that opened no unit merged (1 - change merges each).
    assert units == len(q) and q.n_merges == len(reqs) - len(q)
    assert sum(u.nsectors for u in q.units) == total
    keys = [u.lbn for u in q.units]
    assert keys == sorted(keys)
    assert all(u.nsectors <= 256 or len(u.parts) == 1 for u in q.units)
    # Every submitted request is in exactly one unit.
    assert sum(len(u.parts) for u in q.units) == len(reqs)
