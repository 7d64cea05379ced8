"""Unit & property tests for striping math and extent allocation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pfs import filesystem
from repro.pfs.filesystem import ExtentAllocator, FileSystem
from repro.pfs.layout import StripeLayout


UNIT = 64 * 1024


def test_server_of_round_robin():
    lay = StripeLayout(n_servers=4, stripe_unit=UNIT)
    assert lay.server_of(0) == 0
    assert lay.server_of(UNIT) == 1
    assert lay.server_of(4 * UNIT) == 0
    assert lay.server_of(5 * UNIT + 1) == 1


def test_object_offset_advances_per_round():
    lay = StripeLayout(n_servers=4, stripe_unit=UNIT)
    assert lay.object_offset_of(0) == 0
    assert lay.object_offset_of(4 * UNIT) == UNIT
    assert lay.object_offset_of(4 * UNIT + 7) == UNIT + 7


def test_split_single_unit():
    lay = StripeLayout(n_servers=4, stripe_unit=UNIT)
    pieces = lay.split(0, 1000)
    assert len(pieces) == 1
    assert pieces[0].server == 0 and pieces[0].length == 1000


def test_split_spans_units():
    lay = StripeLayout(n_servers=2, stripe_unit=UNIT)
    pieces = lay.split(UNIT - 100, 200)
    assert [(p.server, p.length) for p in pieces] == [(0, 100), (1, 100)]


def test_object_size_distribution():
    lay = StripeLayout(n_servers=3, stripe_unit=UNIT)
    size = 7 * UNIT + 123
    total = sum(lay.object_size(size, s) for s in range(3))
    assert total == size
    # Stripes 0..6 + tail: server 0 gets stripes 0,3,6 -> 3 units; server 1
    # gets 1,4 and the 123-byte tail of stripe 7.
    assert lay.object_size(size, 0) == 3 * UNIT
    assert lay.object_size(size, 1) == 2 * UNIT + 123
    assert lay.object_size(size, 2) == 2 * UNIT


@given(
    offset=st.integers(min_value=0, max_value=10 * UNIT),
    length=st.integers(min_value=0, max_value=10 * UNIT),
    n_servers=st.integers(min_value=1, max_value=9),
)
@settings(max_examples=100, deadline=None)
def test_split_partitions_range_property(offset, length, n_servers):
    lay = StripeLayout(n_servers=n_servers, stripe_unit=UNIT)
    pieces = lay.split(offset, length)
    assert sum(p.length for p in pieces) == length
    # Pieces tile the byte range in file order.
    pos = offset
    for p in pieces:
        assert p.file_offset == pos
        assert p.server == lay.server_of(pos)
        assert p.object_offset == lay.object_offset_of(pos)
        pos += p.length
    assert pos == offset + length


@given(
    size=st.integers(min_value=1, max_value=20 * UNIT),
    n_servers=st.integers(min_value=1, max_value=9),
)
@settings(max_examples=100, deadline=None)
def test_object_sizes_sum_to_file_size_property(size, n_servers):
    lay = StripeLayout(n_servers=n_servers, stripe_unit=UNIT)
    assert sum(lay.object_size(size, s) for s in range(n_servers)) == size


def test_layout_rejects_bad_params():
    with pytest.raises(ValueError):
        StripeLayout(n_servers=0)
    with pytest.raises(ValueError):
        StripeLayout(n_servers=1, stripe_unit=0)
    lay = StripeLayout(n_servers=2)
    with pytest.raises(ValueError):
        lay.split(-1, 10)


# ----------------------------------------------------------- allocator/fs


def test_packed_allocator_sequential_with_gap(monkeypatch):
    monkeypatch.setattr(filesystem, "GAP_SECTORS", 100)
    alloc = ExtentAllocator(1_000_000, placement="packed")
    a = alloc.allocate(500)
    b = alloc.allocate(500)
    assert a.start_lbn == 0
    assert b.start_lbn == 600


def test_spread_allocator_uses_distant_groups():
    alloc = ExtentAllocator(1_600_000, placement="spread")
    a = alloc.allocate(1000)
    b = alloc.allocate(1000)
    assert abs(b.start_lbn - a.start_lbn) >= 1_600_000 // 16 - 1


def test_allocator_full_raises(monkeypatch):
    monkeypatch.setattr(filesystem, "GAP_SECTORS", 0)
    alloc = ExtentAllocator(1000, placement="packed")
    alloc.allocate(900)
    with pytest.raises(RuntimeError):
        alloc.allocate(200)


def test_allocator_rejects_bad_placement():
    with pytest.raises(ValueError):
        ExtentAllocator(1000, placement="mystery")


def test_filesystem_create_lookup():
    lay = StripeLayout(n_servers=2, stripe_unit=UNIT)
    fs = FileSystem(lay, [ExtentAllocator(10_000_000), ExtentAllocator(10_000_000)])
    f = fs.create("data.bin", 5 * UNIT)
    assert fs.lookup("data.bin") is f
    assert fs.exists("data.bin")
    assert set(f.extents) == {0, 1}


def test_filesystem_duplicate_create():
    lay = StripeLayout(n_servers=1, stripe_unit=UNIT)
    fs = FileSystem(lay, [ExtentAllocator(10_000_000)])
    fs.create("x", UNIT)
    with pytest.raises(FileExistsError):
        fs.create("x", UNIT)


def test_filesystem_missing_lookup():
    lay = StripeLayout(n_servers=1, stripe_unit=UNIT)
    fs = FileSystem(lay, [ExtentAllocator(10_000_000)])
    with pytest.raises(FileNotFoundError):
        fs.lookup("nope")


def test_filesystem_lbn_mapping_is_contiguous():
    lay = StripeLayout(n_servers=2, stripe_unit=UNIT)
    fs = FileSystem(lay, [ExtentAllocator(10_000_000), ExtentAllocator(10_000_000)])
    f = fs.create("y", 4 * UNIT)
    # Object offsets map linearly to LBNs within the extent.
    assert f.lbn_of(0, UNIT) - f.lbn_of(0, 0) == UNIT // 512


def test_filesystem_lbn_beyond_extent_raises():
    lay = StripeLayout(n_servers=1, stripe_unit=UNIT)
    fs = FileSystem(lay, [ExtentAllocator(10_000_000)])
    f = fs.create("z", UNIT)
    with pytest.raises(ValueError):
        f.lbn_of(0, 2 * UNIT)


def test_filesystem_allocator_count_mismatch():
    lay = StripeLayout(n_servers=2, stripe_unit=UNIT)
    with pytest.raises(ValueError):
        FileSystem(lay, [ExtentAllocator(1000)])
