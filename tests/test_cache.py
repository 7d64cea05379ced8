"""Unit & property tests for the global cache and quota tracking."""

from typing import Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import ChunkKey, GlobalCache, QuotaTracker, chunk_range, memcache
from repro.extents import Segment, coalesce_segments
from repro.guard import GuardConfig, MemoryBudget
from repro.net import Network
from repro.sim import Simulator

CB = 64 * 1024


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
    segments = [(CB + 10 * i, 10) for i in reversed(range(512))]
    run(sim, cache.multiput("f", segments, from_node=0, dirty=True))
    assert cache.peek(ChunkKey("f", 1)).dirty_ranges == [Segment(CB, 5120)]


def test_clean_clears_dirty():
    sim, cache = make_cache()
    key = ChunkKey("f", 0)

    def body():
        yield from cache.put(key, from_node=0, dirty_range=(0, 10))

    run(sim, body())
    cache.clean("f", 0)
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

    def body():
        yield from cache.put(ChunkKey("f", 0), from_node=0)
        res = yield from cache.multiget("f", [(0, 1000), (CB, CB + 1000)], from_node=2)
        return res

    missing, n_hits = run(sim, body())
    assert missing == [(CB, CB + 1000)]
    assert n_hits == 1
    assert cache.n_hits == 1


def test_multiget_batches_per_owner():
    """A multiget touching many chunks of one owner is one message pair."""
    sim, cache = make_cache(n_nodes=2)
    keys = [ChunkKey("f", i * 2) for i in range(8)]  # all owner node 0

    def body():
        for k in keys:
            yield from cache.put(k, from_node=0)
        before = cache.network.messages_delivered
        ranges = [(k.index * CB, (k.index + 1) * CB) for k in keys]
        yield from cache.multiget("f", ranges, from_node=1)
        return cache.network.messages_delivered - before

    msgs = run(sim, body())
    assert msgs == 1  # one transfer from owner 0 to node 1


def test_multiput_stores_all():
    sim, cache = make_cache()

    def body():
        yield from cache.multiput("f", [(0, 6 * CB)], from_node=0, cycle_id=3, job_id=9)

    run(sim, body())
    for i in range(6):
        c = cache.peek(ChunkKey("f", i))
        assert c is not None and c.cycle_id == 3 and c.job_id == 9


def test_multiput_dirty_ranges():
    sim, cache = make_cache()

    def body():
        yield from cache.multiput("f", [(10, 10)], from_node=0, job_id=1, dirty=True)

    run(sim, body())
    assert cache.peek(ChunkKey("f", 0)).dirty_ranges == [Segment(10, 10)]


def test_missing_chunks_expires_stale_chunks():
    sim, cache = make_cache()

    def body():
        yield from cache.multiput("f", [(CB, CB)], from_node=0)
        yield sim.timeout(memcache.TTL_S / 2)
        yield from cache.multiput("f", [(3 * CB, CB)], from_node=0)
        yield sim.timeout(memcache.TTL_S / 2 + 1.0)

    run(sim, body())
    assert cache.missing_chunks("f", 10, 4 * CB - 10) == [0, 1, 2]
    assert cache.n_evictions == 1
    assert cache.missing_chunks("f", 5, 5) == []
    assert cache.missing_chunks("g", 0, 1) == [0]


# ------------------------------------------- run-wise vs per-chunk reference


class PerChunkReference:
    """The batched cache path one chunk at a time: a ``ChunkKey`` per
    64 KB chunk, looked up, placed and stored one by one, with the
    engine's and CRM's key-building loops folded in.  The run-wise
    :class:`GlobalCache` must be indistinguishable from it."""

    def __init__(self, sim, network, nodes, budget=None):
        self.sim = sim
        self.network = network
        self.compute_node_ids = list(nodes)
        self._ring = list(nodes)
        self._chunks: dict = {}
        self.budget = budget
        self.n_gets = self.n_hits = self.n_puts = self.n_evictions = 0

    def owner_of(self, key):
        return self._ring[key.index % len(self._ring)]

    def fail_node(self, node):
        self._ring = [n for n in self._ring if n != node]
        victims = [
            k for k, c in self._chunks.items() if c["owner_node"] == node and not c["dirty"]
        ]
        for k in victims:
            self._drop(k)
        self.n_evictions += len(victims)
        for key, c in self._chunks.items():
            if c["owner_node"] == node:
                c["owner_node"] = self.owner_of(key)
                if self.budget is not None:
                    self.budget.transfer_node(CB, node, c["owner_node"])

    def peek(self, key):
        c = self._chunks.get(key)
        if c is not None and self.sim.now - c["last_used"] > memcache.TTL_S:
            self._drop(key)
            self.n_evictions += 1
            return None
        return c

    def _drop(self, key):
        c = self._chunks.pop(key)
        if self.budget is not None:
            self.budget.release(CB, job_id=c["job_id"], node=c["owner_node"])

    def multiget(self, file_name, ranges, from_node):
        wants, spans = [], []
        for lo, hi in ranges:
            for idx in chunk_range(lo, hi - lo, CB):
                c_lo, c_hi = max(lo, idx * CB), min(hi, (idx + 1) * CB)
                key = ChunkKey(file_name, idx)
                wants.append((key, c_hi - c_lo))
                spans.append((key, c_lo, c_hi))
        self.n_gets += len(wants)
        yield self.sim.timeout(memcache.CACHE_OP_CPU_S + 1e-6 * len(wants))
        hits, by_owner = {}, {}
        for key, nbytes in wants:
            chunk = self.peek(key)
            if chunk is None:
                hits[key] = False
                owner = self.owner_of(key)
                by_owner[owner] = by_owner.get(owner, 0) + 8
                continue
            self.n_hits += 1
            chunk["last_used"] = self.sim.now
            chunk["used"] = True
            hits[key] = True
            owner = chunk["owner_node"]
            by_owner[owner] = by_owner.get(owner, 0) + min(nbytes, CB)
        if by_owner:
            yield self.network.transfer_all(
                [(o, from_node, 64 + n) for o, n in sorted(by_owner.items())], name="mc-get"
            )
        missing = [(c_lo, c_hi) for key, c_lo, c_hi in spans if not hits[key]]
        return missing, len(spans) - len(missing)

    def multiput(self, file_name, segments, from_node, cycle_id=0, job_id=None, dirty=False):
        puts = []
        for off, length in segments:
            for idx in chunk_range(off, length, CB):
                c_lo, c_hi = max(off, idx * CB), min(off + length, (idx + 1) * CB)
                puts.append((ChunkKey(file_name, idx), (c_lo, c_hi) if dirty else None))
        self.n_puts += len(puts)
        yield self.sim.timeout(memcache.CACHE_OP_CPU_S + 1e-6 * len(puts))
        by_owner = {}
        for key, dirty_range in puts:
            owner = self.owner_of(key)
            size = CB if dirty_range is None else max(dirty_range[1] - dirty_range[0], 1)
            by_owner[owner] = by_owner.get(owner, 0) + size
        if by_owner:
            yield self.network.transfer_all(
                [(from_node, o, 64 + n) for o, n in sorted(by_owner.items())], name="mc-put"
            )
        for key, dirty_range in puts:
            self._store(key, cycle_id, job_id, dirty_range)

    def _store(self, key, cycle_id, job_id, dirty_range):
        chunk = self._chunks.get(key)
        if chunk is None:
            owner = self.owner_of(key)
            if self.budget is not None:
                if dirty_range is None:
                    if not self.budget.try_charge(CB, job_id=job_id, node=owner):
                        return
                else:
                    self.budget.charge(CB, job_id=job_id, node=owner)
            chunk = dict(owner_node=owner, used=False, dirty=False, dirty_ranges=[], job_id=job_id)
            self._chunks[key] = chunk
        chunk["last_used"] = self.sim.now
        chunk["cycle_id"] = cycle_id
        if job_id is not None:
            old = chunk["job_id"]
            if self.budget is not None and old is not None and old != job_id:
                self.budget.release(CB, job_id=old)
                self.budget.charge(CB, job_id=job_id)
            chunk["job_id"] = job_id
        if dirty_range is not None:
            chunk["dirty"] = True
            chunk["dirty_ranges"].append(Segment(dirty_range[0], dirty_range[1] - dirty_range[0]))
            if len(chunk["dirty_ranges"]) >= 512:
                chunk["dirty_ranges"] = coalesce_segments(chunk["dirty_ranges"])

    def resident(self) -> dict:
        return {(k.file_name, k.index): dict(c) for k, c in self._chunks.items()}


def _resident(cache: GlobalCache) -> dict:
    return {
        (c.file_name, c.index): dict(
            owner_node=c.owner_node, last_used=c.last_used, cycle_id=c.cycle_id,
            used=c.used, dirty=c.dirty, dirty_ranges=c.dirty_ranges, job_id=c.job_id,
        )
        for chunks in cache._files.values()
        for c in chunks.values()
    }


def _observables(cache, resident, budget: Optional[MemoryBudget]) -> dict:
    net = cache.network
    out = dict(
        now=cache.sim.now,
        counters=(cache.n_gets, cache.n_hits, cache.n_puts, cache.n_evictions),
        messages=net.messages_delivered,
        sent=[nic.bytes_sent for nic in net.nics],
        received=[nic.bytes_received for nic in net.nics],
        resident=resident,
    )
    if budget is not None:
        out["budget"] = (budget.total_bytes, budget._by_job, budget._by_node, budget.n_shed_store)
    return out


#: Byte positions within a chunk where runs start or end.
_EDGE = st.sampled_from([0, 1, 100, CB // 2, CB - 1]) | st.integers(0, CB - 1)
_POS = st.builds(lambda c, d: c * CB + d, st.integers(0, 5), _EDGE)
_SPAN = st.sampled_from([0, 1, 10, CB - 1, CB, CB + 1, 3 * CB]) | st.integers(0, 4 * CB)
_SEGMENTS = st.lists(st.tuples(_POS, _SPAN), min_size=0, max_size=6)
_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("get"), st.sampled_from("fg"), _SEGMENTS, st.integers(0, 3)),
        st.tuples(
            st.just("put"), st.sampled_from("fg"), _SEGMENTS, st.integers(0, 3),
            st.integers(0, 2), st.sampled_from([None, 1, 2]), st.booleans(), st.booleans(),
        ),
        st.tuples(st.just("wait"), st.sampled_from([1.0, memcache.TTL_S + 1.0])),
    ),
    min_size=1,
    max_size=12,
)


def _replay(cache, ops) -> list:
    """Run ``ops`` one after another; returns every batched call's result."""
    sim = cache.sim
    results = []
    for op in ops:
        if op[0] == "get":
            _, fname, segs, node = op
            ranges = [(off, off + n) for off, n in segs]
            results.append(sim.run_until_event(sim.process(cache.multiget(fname, ranges, node))))
        elif op[0] == "put":
            _, fname, segs, node, cycle, job, dirty, fail = op
            put = sim.process(cache.multiput(fname, segs, node, cycle, job, dirty))
            n = sum(len(chunk_range(off, length, CB)) for off, length in segs)
            if fail and len(cache._ring) > 1:
                # Evict a cache node after the put's CPU charge, while its
                # payload is on the wire.
                victim = cache._ring[-1]
                sim.run(until=sim.now + memcache.CACHE_OP_CPU_S + 1e-6 * n + 1e-9)
                cache.fail_node(victim)
            sim.run_until_event(put)
        else:
            sim.run_until_event(sim.timeout(op[1]))
    return results


@given(ops=_OPS, job_cap=st.sampled_from([None, 1, 2 * CB, 5 * CB]))
@settings(max_examples=150, deadline=None)
def test_run_wise_batches_match_per_chunk_reference(ops, job_cap):
    """Run-wise multiget/multiput against the per-chunk loops: equal
    results (hits, miss pieces in order), counters, per-owner messages
    and bytes, budget ledgers, and stored chunks, across shared chunks,
    zero-length and mid-chunk ranges, TTL expiry, a cache node evicted
    mid-put and prefetch puts shed at a job cap."""

    def budget():
        if job_cap is None:
            return None
        return MemoryBudget(GuardConfig(job_cap_bytes=job_cap, node_cap_bytes=3 * CB))

    sim_a = Simulator()
    run_wise = GlobalCache(sim_a, Network(sim_a, 4), [0, 1, 2, 3], chunk_bytes=CB)
    run_wise.budget = budget()
    sim_b = Simulator()
    reference = PerChunkReference(sim_b, Network(sim_b, 4), [0, 1, 2, 3], budget())
    assert _replay(run_wise, ops) == _replay(reference, ops)
    assert _observables(run_wise, _resident(run_wise), run_wise.budget) == _observables(
        reference, reference.resident(), reference.budget
    )


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
