"""Tests for op types and the pre-executable op stream."""

import pytest

from repro.mpi.ops import BarrierOp, ComputeOp, IoOp, Segment
from repro.mpi.opstream import OpStream


def rd(offset, length=100, **kw):
    return IoOp(file_name="f", op="R", segments=(Segment(offset, length),), **kw)


# -------------------------------------------------------------------- ops


def test_segment_end():
    assert Segment(10, 5).end == 15


def test_compute_op_rejects_negative():
    with pytest.raises(ValueError):
        ComputeOp(-1.0)


def test_io_op_validation():
    with pytest.raises(ValueError):
        IoOp(file_name="f", op="X", segments=(Segment(0, 10),))
    with pytest.raises(ValueError):
        IoOp(file_name="f", op="R", segments=())
    with pytest.raises(ValueError):
        IoOp(file_name="f", op="R", segments=(Segment(-1, 10),))
    with pytest.raises(ValueError):
        IoOp(file_name="f", op="R", segments=(Segment(0, 0),))


def test_io_op_total_bytes():
    op = IoOp(file_name="f", op="R", segments=(Segment(0, 10), Segment(20, 30)))
    assert op.total_bytes == 40


def test_io_op_prediction_defaults_to_actual():
    op = rd(0)
    assert op.prediction == op.segments


def test_io_op_mispredicted():
    op = IoOp(
        file_name="f",
        op="R",
        segments=(Segment(0, 10),),
        predicted_segments=(Segment(100, 10),),
    )
    assert op.prediction == (Segment(100, 10),)


# ---------------------------------------------------------------- stream


def test_stream_run_consumes_in_order():
    s = OpStream(iter([rd(0), rd(1), rd(2)]))
    assert s.next_for_run().segments[0].offset == 0
    assert s.next_for_run().segments[0].offset == 1
    assert s.next_for_run().segments[0].offset == 2
    assert s.next_for_run() is None
    assert s.finished


def test_stream_peek_does_not_consume():
    s = OpStream(iter([rd(0), rd(1)]))
    peeked = [op.segments[0].offset for op in s.peek()]
    assert peeked == [0, 1]
    # Normal cursor still sees everything.
    assert s.next_for_run().segments[0].offset == 0
    assert s.next_for_run().segments[0].offset == 1


def test_stream_peek_restarts_at_cursor():
    s = OpStream(iter([rd(i) for i in range(5)]))
    s.next_for_run()
    s.next_for_run()
    peeked = [op.segments[0].offset for op in s.peek()]
    assert peeked == [2, 3, 4]


def test_stream_interleaved_peek_and_run():
    """A ghost mid-iteration stays coherent while the normal cursor moves."""
    s = OpStream(iter([rd(i) for i in range(6)]))
    ghost = s.peek()
    assert next(ghost).segments[0].offset == 0
    assert next(ghost).segments[0].offset == 1
    # Normal cursor consumes 0 (behind ghost).
    assert s.next_for_run().segments[0].offset == 0
    assert next(ghost).segments[0].offset == 2
    # Normal cursor overtakes the ghost entirely.
    for _ in range(4):
        s.next_for_run()
    # Ghost snaps forward to the cursor (5), not the stale position.
    assert next(ghost).segments[0].offset == 5
    assert next(ghost, None) is None


def test_stream_n_consumed():
    s = OpStream(iter([rd(i) for i in range(3)]))
    assert s.n_consumed == 0
    s.next_for_run()
    assert s.n_consumed == 1
    list(s.peek())
    assert s.n_consumed == 1  # peeking never consumes


def test_stream_lookahead_len():
    s = OpStream(iter([rd(i) for i in range(4)]))
    assert s.lookahead_len == 0
    list(s.peek())
    assert s.lookahead_len == 4
    s.next_for_run()
    assert s.lookahead_len == 3


def test_stream_two_sequential_ghosts():
    """A second pre-execution re-covers what the first one saw, from the
    (possibly advanced) normal cursor -- fresh-fork semantics."""
    s = OpStream(iter([rd(i) for i in range(4)]))
    first = [op.segments[0].offset for op in s.peek()]
    assert first == [0, 1, 2, 3]
    s.next_for_run()
    second = [op.segments[0].offset for op in s.peek()]
    assert second == [1, 2, 3]


def test_stream_empty():
    s = OpStream(iter([]))
    assert s.next_for_run() is None
    assert list(s.peek()) == []
    assert s.finished


def test_mixed_op_kinds_flow_through():
    ops = [ComputeOp(0.5), BarrierOp(), rd(0)]
    s = OpStream(iter(ops))
    assert isinstance(s.next_for_run(), ComputeOp)
    assert isinstance(s.next_for_run(), BarrierOp)
    assert isinstance(s.next_for_run(), IoOp)
