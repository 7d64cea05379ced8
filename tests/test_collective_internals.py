"""Unit tests for two-phase collective I/O internals."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterSpec, build_cluster
from repro.disk.drive import DiskParams
from repro.mpi.ops import IoOp, Segment
from repro.mpi.runtime import MpiRuntime
from repro.mpiio import collective
from repro.mpiio.collective import (
    CollectiveEngine,
    SegmentBytes,
    split_domains,
)
from repro.runner import JobSpec, run_experiment
from repro.workloads import MpiIoTest, SyntheticPattern


def small_spec(**kw):
    defaults = dict(
        n_compute_nodes=2,
        n_data_servers=3,
        disk=DiskParams(capacity_bytes=2 * 10**9),
    )
    defaults.update(kw)
    return ClusterSpec(**defaults)


# ------------------------------------------------------------- planning


def _clip(seg, lo, hi):
    """Reference: the part of ``seg`` inside ``[lo, hi)``, or None."""
    s = max(seg.offset, lo)
    e = min(seg.end, hi)
    if e <= s:
        return None
    return Segment(s, e - s)


def _clip_domains(ops, lo, fd_size, n_agg):
    """Reference split: every aggregator clips every rank's segments."""
    hi = max(s.end for op in ops.values() for s in op.segments)
    out = []
    for a in range(n_agg):
        d_lo = lo + a * fd_size
        d_hi = min(lo + (a + 1) * fd_size, hi)
        per_rank = {}
        if d_lo < d_hi:
            for rank, op in ops.items():
                clipped = [c for s in op.segments if (c := _clip(s, d_lo, d_hi))]
                if clipped:
                    per_rank[rank] = clipped
        out.append(per_rank)
    return out


@st.composite
def plans(draw):
    """Rank segment lists over ``n_agg`` domains of ``fd_size`` bytes:
    unsorted, overlapping, ending on a boundary, spanning many domains."""
    n_agg = draw(st.integers(1, 5))
    fd_size = draw(st.integers(1, 12))
    lo = draw(st.integers(0, 50))
    span = n_agg * fd_size
    ops = {}
    for rank in draw(st.lists(st.integers(0, 7), min_size=1, max_size=5, unique=True)):
        segs = []
        for _ in range(draw(st.integers(1, 6))):
            off = draw(st.integers(0, span - 1))
            segs.append(Segment(lo + off, draw(st.integers(1, span - off))))
        ops[rank] = IoOp("f", "R", tuple(segs))
    return ops, lo, fd_size, n_agg


def _ops(*rank_segs):
    return {r: IoOp("f", "R", tuple(Segment(*s) for s in segs)) for r, segs in rank_segs}


@example(plan=(_ops((0, [(30, 5), (0, 10), (4, 8)])), 0, 10, 4))  # unsorted, overlap, boundary end
@example(plan=(_ops((1, [(5, 30)]), (0, [(0, 40)])), 0, 10, 4))  # 3+ domains, ranks out of order
@example(plan=(_ops((0, [(7, 3), (3, 2)]), (1, [(3, 4)])), 3, 7, 1))  # one aggregator
@settings(max_examples=300, deadline=None)
@given(plan=plans())
def test_split_domains_matches_clip_loop(plan):
    ops, lo, fd_size, n_agg = plan
    got = split_domains(ops, lo, fd_size, n_agg)
    want = _clip_domains(ops, lo, fd_size, n_agg)
    assert [list(d.items()) for d in got] == [list(d.items()) for d in want]


@settings(max_examples=300, deadline=None)
@given(plan=plans(), bounds=st.tuples(st.integers(0, 120), st.integers(0, 120)))
def test_segment_bytes_matches_clip_sum(plan, bounds):
    ops, lo, fd_size, n_agg = plan
    g_lo, g_hi = sorted(bounds)
    for per_rank in split_domains(ops, lo, fd_size, n_agg) + [
        {r: list(op.segments) for r, op in ops.items()}
    ]:
        for segs in per_rank.values():
            want = sum(c.length for s in segs if (c := _clip(s, g_lo, g_hi)))
            assert SegmentBytes(segs).within(g_lo, g_hi) == want


# ----------------------------------------------------------- aggregators


def make_engine(nprocs=4):
    cluster = build_cluster(small_spec())
    rt = MpiRuntime(cluster)
    from repro.mpi.runtime import MpiJob

    job = MpiJob(rt, "c", nprocs, SyntheticPattern(), CollectiveEngine)
    return job.engine


def test_default_aggregator_count_is_node_count():
    eng = make_engine(nprocs=4)
    assert eng.n_aggregators == 2  # min(2 nodes, 4 procs)


def test_aggregator_count_capped_by_procs():
    eng = make_engine(nprocs=1)
    assert eng.n_aggregators == 1


def test_meta_cost_grows_with_procs():
    small = make_engine(nprocs=2)._meta_cost_s()
    big = make_engine(nprocs=64)._meta_cost_s()
    assert big > small


# ------------------------------------------------------------ behaviour


def test_collective_reads_exact_bytes_when_no_holes():
    """mpi-io-test tiles the file: aggregators read no extra data."""
    res = run_experiment(
        [JobSpec("c", 4, MpiIoTest(file_size=2 * 1024 * 1024), strategy="collective")],
        cluster_spec=small_spec(),
    )
    assert res.cluster.total_bytes_served() == 2 * 1024 * 1024


def test_collective_write_rmw_on_holey_pattern():
    """A pattern leaving holes inside the file domain forces read-modify-
    write: servers serve more bytes than the program wrote."""
    from repro.workloads import Hpio

    # 1 KB regions spaced 1 KB apart: 50% of every aggregator domain is
    # holes, bridged by the 64 KB hole threshold -> RMW.
    w = Hpio(region_count=256, region_bytes=1024, region_spacing=1024, op="W")
    res = run_experiment(
        [JobSpec("c", 4, w, strategy="collective")],
        cluster_spec=small_spec(),
    )
    written = res.jobs[0].bytes_written
    assert written == 256 * 1024
    assert res.cluster.total_bytes_served() > written


def test_collective_rounds_respect_cb_buffer(monkeypatch):
    """A domain bigger than the collective buffer is processed in several
    rounds, each its own server requests; the data still arrives exactly
    once."""

    def run():
        res = run_experiment(
            [JobSpec("c", 4, MpiIoTest(file_size=4 * 1024 * 1024), strategy="collective")],
            cluster_spec=small_spec(),
        )
        return res, sum(ds.n_requests for ds in res.cluster.data_servers)

    _, one_round = run()
    # Each call moves 4 ranks x 16 KB; a 16 KB buffer splits it.
    monkeypatch.setattr(collective, "CB_BUFFER_BYTES", 16 * 1024)
    res, rounds = run()
    assert rounds > one_round
    assert res.jobs[0].bytes_read == 4 * 1024 * 1024


def test_every_op_takes_the_two_phase_path():
    """Running a program "with collective I/O" makes every call the _all
    variant: an independent strided pattern goes through the aggregators
    too."""
    res = run_experiment(
        [JobSpec("c", 4, SyntheticPattern(file_size=1024 * 1024), strategy="collective")],
        cluster_spec=small_spec(),
    )
    eng = res.mpi_jobs[0].engine
    assert eng.n_collective_calls > 0
    assert res.jobs[0].bytes_read == 1024 * 1024


def test_collective_exchange_bytes_counted():
    res = run_experiment(
        [JobSpec("c", 4, MpiIoTest(file_size=1024 * 1024), strategy="collective")],
        cluster_spec=small_spec(),
    )
    eng = res.mpi_jobs[0].engine
    # Every byte read was redistributed from an aggregator to its rank.
    assert eng.exchange_bytes == 1024 * 1024
