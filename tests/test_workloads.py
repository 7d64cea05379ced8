"""Tests for the benchmark workload generators."""

import pytest

from repro.mpi.ops import BarrierOp, ComputeOp, IoOp
from repro.workloads import (
    Btio,
    Demo,
    DependentReads,
    Hpio,
    IorMpiIo,
    MpiIoTest,
    Noncontig,
    S3asim,
    SyntheticPattern,
)


def io_ops(workload, rank, size):
    return [op for op in workload.ops(rank, size) if isinstance(op, IoOp)]


def all_segments(workload, size):
    segs = []
    for r in range(size):
        for op in io_ops(workload, r, size):
            segs.extend(op.segments)
    return segs


def coverage_bytes(workload, size):
    return sum(s.length for s in all_segments(workload, size))


# ---------------------------------------------------------------- generic


@pytest.mark.parametrize(
    "workload",
    [
        MpiIoTest(file_size=1024 * 1024),
        Demo(file_size=2 * 1024 * 1024),
        Hpio(region_count=64),
        IorMpiIo(file_size=2 * 1024 * 1024),
        Noncontig(elmtcount=16, n_rows=64).with_ncols_hint(4),
        S3asim(n_queries=4, db_bytes=4 * 1024 * 1024),
        Btio(total_bytes=1024 * 1024, n_steps=2),
        DependentReads(file_size=1024 * 1024),
        SyntheticPattern(file_size=1024 * 1024),
    ],
    ids=lambda w: w.name,
)
def test_workload_replayable(workload):
    """ops() must be deterministic across calls (ghost fork semantics)."""
    a = list(workload.ops(1, 4))
    b = list(workload.ops(1, 4))
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert type(x) is type(y)
        if isinstance(x, IoOp):
            assert x.segments == y.segments
            assert x.prediction == y.prediction


@pytest.mark.parametrize(
    "workload",
    [
        MpiIoTest(file_size=1024 * 1024),
        Demo(file_size=2 * 1024 * 1024),
        IorMpiIo(file_size=2 * 1024 * 1024),
        Btio(total_bytes=1024 * 1024, n_steps=2),
    ],
    ids=lambda w: w.name,
)
def test_segments_within_file(workload):
    sizes = {f.name: f.size for f in workload.files()}
    for r in range(4):
        for op in io_ops(workload, r, 4):
            limit = sizes[op.file_name]
            for s in op.segments:
                assert 0 <= s.offset and s.end <= limit


# ------------------------------------------------------------ mpi-io-test


def test_mpi_io_test_globally_sequential():
    w = MpiIoTest(file_size=1024 * 1024, request_bytes=16 * 1024)
    segs = sorted(all_segments(w, 4), key=lambda s: s.offset)
    # Segments tile the file exactly.
    pos = 0
    for s in segs:
        assert s.offset == pos
        pos = s.end
    assert pos == 1024 * 1024


def test_mpi_io_test_rank_interleave():
    w = MpiIoTest(file_size=1024 * 1024, request_bytes=16 * 1024)
    first = io_ops(w, 2, 4)[0]
    assert first.segments[0].offset == 2 * 16 * 1024


def test_mpi_io_test_barriers_emitted():
    w = MpiIoTest(file_size=256 * 1024, request_bytes=16 * 1024, barrier_every=1)
    kinds = [type(op) for op in w.ops(0, 4)]
    assert kinds.count(BarrierOp) == kinds.count(IoOp)


def test_mpi_io_test_write_mode():
    w = MpiIoTest(file_size=256 * 1024, op="W")
    assert all(op.op == "W" for op in io_ops(w, 0, 4))


def test_mpi_io_test_validation():
    with pytest.raises(ValueError):
        MpiIoTest(file_size=1000, request_bytes=16 * 1024 + 1)
    with pytest.raises(ValueError):
        MpiIoTest(op="Z")


# ------------------------------------------------------------------ demo


def test_demo_segments_per_call():
    w = Demo(file_size=8 * 1024 * 1024, segment_bytes=4096, segments_per_call=16)
    op = io_ops(w, 3, 8)[0]
    assert len(op.segments) == 16
    # Rank 3's k-th segment sits at (k*8 + 3) * 4096.
    assert [s.offset for s in op.segments] == [(k * 8 + 3) * 4096 for k in range(16)]


def test_demo_covers_file_exactly():
    w = Demo(file_size=8 * 1024 * 1024, segment_bytes=4096)
    assert coverage_bytes(w, 8) == w.n_calls(8) * 8 * 16 * 4096


def test_demo_compute_interleaved():
    w = Demo(file_size=2 * 1024 * 1024, compute_per_call=0.5)
    ops = list(w.ops(0, 8))
    assert isinstance(ops[0], ComputeOp) and ops[0].seconds == 0.5


# ------------------------------------------------------------------ hpio


def test_hpio_contiguous_when_no_spacing():
    w = Hpio(region_count=16, region_bytes=32 * 1024, region_spacing=0)
    segs = sorted(all_segments(w, 4), key=lambda s: s.offset)
    pos = 0
    for s in segs:
        assert s.offset == pos
        pos = s.end


def test_hpio_spacing_creates_holes():
    w = Hpio(region_count=8, region_bytes=1024, region_spacing=512)
    segs = sorted(all_segments(w, 2), key=lambda s: s.offset)
    assert segs[1].offset - segs[0].end == 512


def test_hpio_file_size():
    w = Hpio(region_count=4, region_bytes=1000, region_spacing=24)
    assert w.file_size == 4 * 1024 - 24


# ------------------------------------------------------------------- ior


def test_ior_partitioned_scopes_disjoint():
    w = IorMpiIo(file_size=4 * 1024 * 1024, request_bytes=32 * 1024)
    for r in range(4):
        segs = [s for op in io_ops(w, r, 4) for s in op.segments]
        scope = 1024 * 1024
        assert all(r * scope <= s.offset and s.end <= (r + 1) * scope for s in segs)
        # Sequential within scope.
        assert [s.offset for s in segs] == sorted(s.offset for s in segs)


def test_ior_validate_rejects_tiny_scope():
    w = IorMpiIo(file_size=64 * 1024, request_bytes=32 * 1024)
    with pytest.raises(ValueError):
        w.validate(4)


# -------------------------------------------------------------- noncontig


def test_noncontig_column_access():
    w = Noncontig(elmtcount=16, n_rows=32, bytes_per_call=4096).with_ncols_hint(4)
    width = 16 * 4
    ops = io_ops(w, 1, 4)
    seg0 = ops[0].segments[0]
    assert seg0.offset == 1 * width  # rank 1's column in row 0
    # Stride between consecutive rows is ncols * width.
    seg1 = ops[0].segments[1]
    assert seg1.offset - seg0.offset == 4 * width


def test_noncontig_validate():
    w = Noncontig(elmtcount=16, n_rows=32).with_ncols_hint(4)
    with pytest.raises(ValueError):
        w.validate(8)


def test_noncontig_covers_all_rows():
    w = Noncontig(elmtcount=16, n_rows=100, bytes_per_call=1024).with_ncols_hint(4)
    segs = [s for op in io_ops(w, 2, 4) for s in op.segments]
    assert len(segs) == 100


# ---------------------------------------------------------------- s3asim


def test_s3asim_reads_and_writes():
    w = S3asim(n_queries=8, db_bytes=8 * 1024 * 1024)
    ops = io_ops(w, 0, 4)
    assert any(op.op == "R" for op in ops)
    assert any(op.op == "W" for op in ops)


def test_s3asim_result_regions_disjoint():
    w = S3asim(n_queries=4, db_bytes=8 * 1024 * 1024, out_region_bytes=1024 * 1024)
    w0 = [s for op in io_ops(w, 0, 2) if op.op == "W" for s in op.segments]
    w1 = [s for op in io_ops(w, 1, 2) if op.op == "W" for s in op.segments]
    assert max(s.end for s in w0) <= min(s.offset for s in w1)


def test_s3asim_more_queries_more_data():
    small = coverage_bytes(S3asim(n_queries=4, db_bytes=8 * 1024 * 1024), 2)
    big = coverage_bytes(S3asim(n_queries=16, db_bytes=8 * 1024 * 1024), 2)
    assert big > small


def test_s3asim_validation():
    with pytest.raises(ValueError):
        S3asim(n_queries=0)
    with pytest.raises(ValueError):
        S3asim(min_seq_bytes=100, max_seq_bytes=50)


# ------------------------------------------------------------------ btio


def test_btio_cell_size_shrinks_with_procs():
    w = Btio(cell_scale=4096)
    assert w.cell_bytes(16) == 256
    assert w.cell_bytes(64) == 64
    assert w.cell_bytes(256) == 16


def test_btio_cells_disjoint_across_ranks():
    w = Btio(total_bytes=64 * 1024, n_steps=1, cell_scale=1024)
    s0 = {s.offset for op in io_ops(w, 0, 4) for s in op.segments}
    s1 = {s.offset for op in io_ops(w, 1, 4) for s in op.segments}
    assert not (s0 & s1)


def test_btio_verify_read_phase():
    w = Btio(total_bytes=64 * 1024, n_steps=1, verify_read=True)
    ops = io_ops(w, 0, 4)
    assert ops[-1].op == "R"


def test_btio_bad_steps():
    with pytest.raises(ValueError):
        Btio(total_bytes=1001, n_steps=2)


# -------------------------------------------------------------- dependent


def test_dependent_predictions_never_match_actuals():
    w = DependentReads(file_size=1024 * 1024, request_bytes=64 * 1024)
    actual = set()
    predicted = set()
    for r in range(2):
        for op in io_ops(w, r, 2):
            actual.update(s.offset for s in op.segments)
            predicted.update(s.offset for s in op.prediction)
    assert not (actual & predicted)


def test_dependent_reads_only_first_half():
    w = DependentReads(file_size=1024 * 1024, request_bytes=64 * 1024)
    for op in io_ops(w, 0, 2):
        assert op.segments[0].end <= 512 * 1024


# -------------------------------------------------------------- synthetic


def test_synthetic_patterns():
    for pattern in ("sequential", "partitioned", "random"):
        w = SyntheticPattern(file_size=1024 * 1024, pattern=pattern)
        segs = all_segments(w, 4)
        assert sum(s.length for s in segs) == 1024 * 1024


def test_synthetic_rejects_bad_pattern():
    with pytest.raises(ValueError):
        SyntheticPattern(pattern="zigzag")
