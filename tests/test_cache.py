"""Unit & property tests for the global cache and quota tracking."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import ChunkKey, GlobalCache, QuotaTracker, chunk_range, chunks_of, memcache
from repro.extents import Segment, coalesce_segments
from repro.net import Network
from repro.sim import Simulator


def make_cache(n_nodes=4):
    sim = Simulator()
    net = Network(sim, n_nodes)
    cache = GlobalCache(sim, net, list(range(n_nodes)), chunk_bytes=64 * 1024)
    return sim, cache


def run(sim, gen):
    return sim.run_until_event(sim.process(gen))


# ------------------------------------------------------------- chunk math


def test_chunk_range_single():
    assert list(chunk_range(0, 100, 64 * 1024)) == [0]


def test_chunk_range_spans_boundary():
    cb = 64 * 1024
    assert list(chunk_range(cb - 1, 2, cb)) == [0, 1]


def test_chunk_range_empty():
    assert list(chunk_range(500, 0)) == []


def test_chunk_range_rejects_negative():
    with pytest.raises(ValueError):
        chunk_range(-1, 10)


def test_chunks_of_keys():
    keys = list(chunks_of("f", 0, 128 * 1024, 64 * 1024))
    assert keys == [ChunkKey("f", 0), ChunkKey("f", 1)]


@given(
    offset=st.integers(min_value=0, max_value=10**7),
    length=st.integers(min_value=1, max_value=10**6),
)
@settings(max_examples=100, deadline=None)
def test_chunk_range_covers_property(offset, length):
    cb = 64 * 1024
    idxs = list(chunk_range(offset, length, cb))
    assert idxs[0] * cb <= offset
    assert (idxs[-1] + 1) * cb >= offset + length
    assert idxs == sorted(idxs)
    assert len(idxs) == len(set(idxs))


# -------------------------------------------------------------- basic ops


def test_get_miss_returns_false():
    sim, cache = make_cache()

    def body():
        hit = yield from cache.get(ChunkKey("f", 0), from_node=0)
        return hit

    assert run(sim, body()) is False
    assert cache.n_gets == 1
    assert cache.n_hits == 0


def test_put_then_get_hits():
    sim, cache = make_cache()
    key = ChunkKey("f", 3)

    def body():
        yield from cache.put(key, from_node=1, job_id=7)
        hit = yield from cache.get(key, from_node=2)
        return hit

    assert run(sim, body()) is True
    assert cache.hit_ratio == 1.0
    chunk = cache.peek(key)
    assert chunk.used is True
    assert chunk.job_id == 7


def test_owner_round_robin():
    _, cache = make_cache(n_nodes=4)
    owners = [cache.owner_of(ChunkKey("f", i)) for i in range(8)]
    assert owners == [0, 1, 2, 3, 0, 1, 2, 3]


def test_ttl_expiry():
    sim, cache = make_cache()
    key = ChunkKey("f", 0)

    def body():
        yield from cache.put(key, from_node=0)
        yield sim.timeout(memcache.TTL_S + 1.0)
        return (yield from cache.get(key, from_node=0))

    assert run(sim, body()) is False
    assert cache.n_evictions == 1


def test_dirty_ranges_merge():
    sim, cache = make_cache()
    key = ChunkKey("f", 0)

    def body():
        yield from cache.put(key, from_node=0, dirty_range=(0, 100))
        yield from cache.put(key, from_node=0, dirty_range=(50, 200))
        yield from cache.put(key, from_node=0, dirty_range=(500, 600))

    run(sim, body())
    chunk = cache.peek(key)
    assert chunk.dirty
    assert coalesce_segments(chunk.dirty_ranges) == [Segment(0, 200), Segment(500, 100)]

    # The 512th range compacts the list to its merge.
    key = ChunkKey("f", 1)
    ranges = [(10 * i, 10 * i + 10) for i in reversed(range(512))]
    run(sim, cache.multiput([(key, r) for r in ranges], from_node=0))
    assert cache.peek(key).dirty_ranges == [Segment(0, 5120)]


def test_clean_clears_dirty():
    sim, cache = make_cache()
    key = ChunkKey("f", 0)

    def body():
        yield from cache.put(key, from_node=0, dirty_range=(0, 10))

    run(sim, body())
    cache.clean(key)
    assert not cache.peek(key).dirty
    assert cache.dirty_chunks() == []


def test_dirty_chunks_filter_by_job():
    sim, cache = make_cache()

    def body():
        yield from cache.put(ChunkKey("a", 0), from_node=0, job_id=1, dirty_range=(0, 5))
        yield from cache.put(ChunkKey("b", 0), from_node=0, job_id=2, dirty_range=(0, 5))

    run(sim, body())
    assert len(cache.dirty_chunks(job_id=1)) == 1
    assert len(cache.dirty_chunks()) == 2


def test_misprefetch_stats_and_purge():
    sim, cache = make_cache()

    def body():
        yield from cache.put(ChunkKey("f", 0), from_node=0, cycle_id=1, job_id=5)
        yield from cache.put(ChunkKey("f", 1), from_node=0, cycle_id=1, job_id=5)
        # use one of them
        yield from cache.get(ChunkKey("f", 0), from_node=0)

    run(sim, body())
    unused, total = cache.misprefetch_stats(job_id=5, cycle_id=1)
    assert (unused, total) == (1, 2)
    assert cache.purge_unused(job_id=5, cycle_id=1) == 1
    assert cache.contains(ChunkKey("f", 0))
    assert not cache.contains(ChunkKey("f", 1))


def test_purge_job():
    sim, cache = make_cache()

    def body():
        yield from cache.put(ChunkKey("f", 0), from_node=0, job_id=1)
        yield from cache.put(ChunkKey("g", 0), from_node=0, job_id=2)

    run(sim, body())
    assert cache.purge_job(1) == 1
    assert cache.resident_bytes() == 64 * 1024


def test_get_charges_network_time():
    sim, cache = make_cache()
    key = ChunkKey("f", 1)  # owner node 1

    def body():
        yield from cache.put(key, from_node=0)
        t0 = sim.now
        yield from cache.get(key, from_node=2, nbytes=64 * 1024)
        return sim.now - t0

    dt = run(sim, body())
    assert dt > 64 * 1024 / 117e6  # at least the wire time


# ------------------------------------------------------------- batched ops


def test_multiget_mixed_hits():
    sim, cache = make_cache()
    k0, k1 = ChunkKey("f", 0), ChunkKey("f", 1)

    def body():
        yield from cache.put(k0, from_node=0)
        res = yield from cache.multiget([(k0, 1000), (k1, 1000)], from_node=2)
        return res

    res = run(sim, body())
    assert res == {k0: True, k1: False}
    assert cache.n_hits == 1


def test_multiget_batches_per_owner():
    """A multiget touching many chunks of one owner is one message pair."""
    sim, cache = make_cache(n_nodes=2)
    keys = [ChunkKey("f", i * 2) for i in range(8)]  # all owner node 0

    def body():
        for k in keys:
            yield from cache.put(k, from_node=0)
        before = cache.network.messages_delivered
        yield from cache.multiget([(k, 64 * 1024) for k in keys], from_node=1)
        return cache.network.messages_delivered - before

    msgs = run(sim, body())
    assert msgs == 1  # one transfer from owner 0 to node 1


def test_multiput_stores_all():
    sim, cache = make_cache()
    puts = [(ChunkKey("f", i), None) for i in range(6)]

    def body():
        yield from cache.multiput(puts, from_node=0, cycle_id=3, job_id=9)

    run(sim, body())
    for key, _ in puts:
        c = cache.peek(key)
        assert c is not None and c.cycle_id == 3 and c.job_id == 9


def test_multiput_dirty_ranges():
    sim, cache = make_cache()

    def body():
        yield from cache.multiput(
            [(ChunkKey("f", 0), (10, 20))], from_node=0, job_id=1
        )

    run(sim, body())
    assert cache.peek(ChunkKey("f", 0)).dirty_ranges == [Segment(10, 10)]


# ---------------------------------------------------------------- quota


def test_quota_accounting():
    q = QuotaTracker(quota_bytes=100)
    q.add_dirty(30)
    assert q.dirty_bytes == 30
    assert not q.full
    q.add_dirty(70)
    assert q.full


def test_quota_resets():
    q = QuotaTracker(quota_bytes=100)
    q.add_dirty(100)
    assert q.full
    q.reset_dirty()
    assert q.dirty_bytes == 0
    assert not q.full


def test_quota_rejects_negative():
    with pytest.raises(ValueError):
        QuotaTracker(quota_bytes=-1)
    q = QuotaTracker(10)
    with pytest.raises(ValueError):
        q.add_dirty(-5)
