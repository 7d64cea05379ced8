"""Unit & property tests for the server page cache and readahead."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pfs import pagecache
from repro.pfs.pagecache import ServerPageCache


def test_empty_cache_misses():
    pc = ServerPageCache()
    assert not pc.contains("f", 0, 100)


def test_insert_then_contains():
    pc = ServerPageCache()
    pc.insert("f", 1000, 500)
    assert pc.contains("f", 1000, 500)
    assert pc.contains("f", 1200, 100)
    assert not pc.contains("f", 900, 200)
    assert not pc.contains("f", 1400, 200)


def test_zero_length_contains_true():
    pc = ServerPageCache()
    assert pc.contains("f", 42, 0)


def test_adjacent_inserts_merge():
    pc = ServerPageCache()
    pc.insert("f", 0, 100)
    pc.insert("f", 100, 100)
    assert pc.contains("f", 0, 200)
    assert len(pc._extents["f"]) == 1


def test_overlapping_inserts_merge():
    pc = ServerPageCache()
    pc.insert("f", 0, 150)
    pc.insert("f", 100, 150)
    assert pc.contains("f", 0, 250)
    assert pc.resident_bytes == 250


def test_invalidate_splits_extent():
    pc = ServerPageCache()
    pc.insert("f", 0, 300)
    pc.invalidate("f", 100, 100)
    assert pc.contains("f", 0, 100)
    assert pc.contains("f", 200, 100)
    assert not pc.contains("f", 100, 100)
    assert pc.resident_bytes == 200


def test_invalidate_other_file_noop():
    pc = ServerPageCache()
    pc.insert("f", 0, 100)
    pc.invalidate("g", 0, 100)
    assert pc.contains("f", 0, 100)


def test_capacity_eviction(monkeypatch):
    monkeypatch.setattr(pagecache, "CAPACITY_BYTES", 1000)
    pc = ServerPageCache()
    pc.insert("f", 0, 600)
    pc.insert("f", 10_000, 600)
    assert pc.resident_bytes <= 1000
    # The oldest extent went first.
    assert not pc.contains("f", 0, 600)
    assert pc.contains("f", 10_000, 600)


# ------------------------------------------------------------- readahead


def test_first_access_no_readahead():
    pc = ServerPageCache()
    assert pc.record_access("f", 0, 16 * 1024) == 0


def test_sequential_accesses_grow_window():
    pc = ServerPageCache()
    w0 = pc.record_access("f", 0, 16 * 1024)
    assert w0 == 0
    # Next access lands at the previous scheduled end.
    w1 = pc.record_access("f", 16 * 1024, 16 * 1024)
    assert w1 == 32 * 1024
    w2 = pc.record_access("f", 16 * 1024 + 16 * 1024 + w1, 16 * 1024)
    assert w2 == 64 * 1024


def test_window_caps_at_ra_max(monkeypatch):
    monkeypatch.setattr(pagecache, "RA_MAX", 64 * 1024)
    monkeypatch.setattr(pagecache, "RA_SLACK", 1 << 30)
    pc = ServerPageCache()
    pos = 0
    w = 0
    for _ in range(6):
        w = pc.record_access("f", pos, 16 * 1024)
        pos += 16 * 1024 + w
    assert w == 64 * 1024


def test_random_access_resets_window():
    pc = ServerPageCache()
    pc.record_access("f", 0, 16 * 1024)
    pc.record_access("f", 16 * 1024, 16 * 1024)  # grows
    w = pc.record_access("f", 100 * 1024 * 1024, 16 * 1024)  # far jump
    assert w == 0


def test_readahead_state_is_per_context():
    pc = ServerPageCache()
    pc.record_access("f", 0, 16 * 1024, context=0)
    # Context 1 sees the same offsets but has its own cold state.
    assert pc.record_access("f", 16 * 1024, 16 * 1024, context=1) == 0
    # Context 0 still grows.
    assert pc.record_access("f", 16 * 1024, 16 * 1024, context=0) > 0


def test_on_hit_triggers_next_window(monkeypatch):
    monkeypatch.setattr(pagecache, "RA_MAX", 64 * 1024)
    pc = ServerPageCache()
    pc.record_access("f", 0, 16 * 1024)
    w = pc.record_access("f", 16 * 1024, 16 * 1024)  # window scheduled
    last_end = 32 * 1024 + w
    # A hit near the scheduled end triggers the next async window.
    trig = pc.on_hit("f", last_end - 16 * 1024, 16 * 1024)
    assert trig is not None
    start, length = trig
    assert start == last_end
    assert length > 0


def test_on_hit_far_from_edge_no_trigger(monkeypatch):
    monkeypatch.setattr(pagecache, "RA_MAX", 256 * 1024)
    pc = ServerPageCache()
    pc.record_access("f", 0, 16 * 1024)
    pc.record_access("f", 16 * 1024, 16 * 1024)
    assert pc.on_hit("f", 0, 1024) is None


def test_on_hit_unknown_file_none():
    pc = ServerPageCache()
    assert pc.on_hit("nope", 0, 100) is None


@given(
    ops=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=10**6),
            st.integers(min_value=1, max_value=10**5),
            st.sampled_from(["ins", "inv"]),
        ),
        min_size=1,
        max_size=40,
    )
)
@settings(max_examples=100, deadline=None)
def test_extents_invariants_property(ops):
    """Extents stay sorted, disjoint, and resident_bytes consistent (the
    inserts stay far below CAPACITY_BYTES, so nothing is evicted)."""
    pc = ServerPageCache()
    for off, ln, kind in ops:
        if kind == "ins":
            pc.insert("f", off, ln)
        else:
            pc.invalidate("f", off, ln)
        ivs = pc._extents.get("f", [])
        for (a, b), (c, d) in zip(ivs, ivs[1:]):
            assert a < b and c < d and b <= c
        assert pc.resident_bytes == sum(b - a for a, b in ivs)
