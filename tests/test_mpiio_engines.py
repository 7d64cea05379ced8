"""Tests for the MPI-IO layer: data sieving, list I/O, and the engines."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterSpec, build_cluster
from repro.disk.drive import DiskParams
from repro.extents import Segment, coalesce_counting, coalesce_segments
from repro.mpiio.listio import batch_io
from repro.runner import JobSpec, run_experiment
from repro.workloads import MpiIoTest, Noncontig, SyntheticPattern


def small_spec(**kw):
    defaults = dict(
        n_compute_nodes=2,
        n_data_servers=3,
        disk=DiskParams(capacity_bytes=2 * 10**9),
    )
    defaults.update(kw)
    return ClusterSpec(**defaults)


# ------------------------------------------------------------ data sieving


def test_coalesce_merges_adjacent():
    out = coalesce_segments([Segment(0, 10), Segment(10, 10)])
    assert out == [Segment(0, 20)]


def test_coalesce_sorts_input():
    out = coalesce_segments([Segment(50, 10), Segment(0, 10)])
    assert out == [Segment(0, 10), Segment(50, 10)]


def test_coalesce_bridges_small_holes():
    out = coalesce_segments([Segment(0, 10), Segment(15, 10)], hole_threshold=5)
    assert out == [Segment(0, 25)]


def test_coalesce_respects_threshold():
    out = coalesce_segments([Segment(0, 10), Segment(16, 10)], hole_threshold=5)
    assert len(out) == 2


def test_coalesce_overlapping_segments():
    out = coalesce_segments([Segment(0, 20), Segment(10, 20)])
    assert out == [Segment(0, 30)]


def test_coalesce_empty():
    assert coalesce_segments([]) == []


def test_coalesce_bad_params():
    for coalesce in (coalesce_segments, coalesce_counting):
        with pytest.raises(ValueError):
            coalesce([Segment(0, 1)], -1)
        # Validation does not depend on the input being non-empty.
        with pytest.raises(ValueError):
            coalesce([], -1)


#: Unsorted, overlapping and adjacent segments over a small span.
segment_lists = st.lists(
    st.builds(Segment, st.integers(0, 60), st.integers(1, 20)), max_size=12
)


@example(segs=[], hole=0)
@example(segs=[Segment(30, 5), Segment(0, 10), Segment(4, 8), Segment(14, 3)], hole=4)
@settings(max_examples=300, deadline=None)
@given(segs=segment_lists, hole=st.integers(0, 20))
def test_coalesce_counting_matches_two_coalesces(segs, hole):
    coalesced, requested = coalesce_counting(segs, hole)
    assert coalesced == coalesce_segments(segs, hole_threshold=hole)
    assert requested == sum(s.length for s in coalesce_segments(segs, hole_threshold=0))


# ---------------------------------------------------------------- list io


def test_batch_io_reads_all_segments():
    cluster = build_cluster(small_spec())
    sim = cluster.sim
    f = cluster.fs.create("l.dat", 4 * 1024 * 1024)
    client = cluster.clients[0]
    segs = [Segment(i * 256 * 1024, 64 * 1024) for i in range(8)]

    def body():
        yield from batch_io(client, f, segs, "R", stream_id=1)

    sim.run_until_event(sim.process(body()))
    assert client.bytes_read == 8 * 64 * 1024
    assert cluster.total_bytes_served() == 8 * 64 * 1024


def test_batch_io_one_message_per_server():
    cluster = build_cluster(small_spec())
    sim = cluster.sim
    f = cluster.fs.create("l.dat", 4 * 1024 * 1024)
    client = cluster.clients[0]
    # Segments covering all 3 servers.
    segs = [Segment(i * 64 * 1024, 64 * 1024) for i in range(6)]
    before = [ds.n_requests for ds in cluster.data_servers]

    def body():
        yield from batch_io(client, f, segs, "R", stream_id=1)

    sim.run_until_event(sim.process(body()))
    # Each server received its pieces as one list call: n_requests counts
    # pieces, and each server got exactly 2 of the 6 stripes.
    after = [ds.n_requests - b for ds, b in zip(cluster.data_servers, before)]
    assert sorted(after) == [1, 1, 1]  # coalesced per server into one run


def test_batch_io_merges_same_server_runs_of_one_segment():
    cluster = build_cluster(small_spec())
    sim = cluster.sim
    f = cluster.fs.create("l.dat", 4 * 1024 * 1024)
    client = cluster.clients[0]
    servers = cluster.data_servers
    # 6 stripe units: servers 0,1,2,0,1,2; object-contiguous per server.
    seg = Segment(0, 6 * 64 * 1024)

    def body():
        yield from batch_io(client, f, [seg], "R", stream_id=1)

    sim.run_until_event(sim.process(body()))
    assert [ds.n_requests for ds in servers] == [1, 1, 1]
    assert [ds.bytes_read for ds in servers] == [2 * 64 * 1024] * 3


def test_batch_io_write():
    cluster = build_cluster(small_spec())
    sim = cluster.sim
    f = cluster.fs.create("w.dat", 1024 * 1024)
    client = cluster.clients[0]

    def body():
        yield from batch_io(client, f, [Segment(0, 512 * 1024)], "W", stream_id=1)

    sim.run_until_event(sim.process(body()))
    assert client.bytes_written == 512 * 1024


def test_batch_io_rejects_out_of_file():
    cluster = build_cluster(small_spec())
    f = cluster.fs.create("s.dat", 64 * 1024)
    client = cluster.clients[0]
    with pytest.raises(ValueError):
        list(batch_io(client, f, [Segment(0, 128 * 1024)], "R", 0))


def test_batch_io_empty_noop():
    cluster = build_cluster(small_spec())
    f = cluster.fs.create("e.dat", 64 * 1024)
    assert list(batch_io(cluster.clients[0], f, [], "R", 0)) == []


# ------------------------------------------------------------ engines


def test_vanilla_engine_runs_strided_workload():
    res = run_experiment(
        [JobSpec("v", 4, Noncontig(elmtcount=16, n_rows=64).with_ncols_hint(4),
                 strategy="vanilla")],
        cluster_spec=small_spec(),
    )
    j = res.jobs[0]
    assert j.bytes_read == 64 * 4 * 16 * 4
    assert j.elapsed_s > 0


def test_collective_engine_aggregates():
    res = run_experiment(
        [JobSpec("c", 4, Noncontig(elmtcount=16, n_rows=64)
                 .with_ncols_hint(4), strategy="collective")],
        cluster_spec=small_spec(),
    )
    eng = res.mpi_jobs[0].engine
    assert eng.n_collective_calls > 0
    assert eng.exchange_bytes > 0
    assert res.jobs[0].bytes_read == 64 * 4 * 16 * 4


def test_collective_faster_than_vanilla_on_noncontig():
    def w():
        return Noncontig(elmtcount=16, n_rows=256, bytes_per_call=64 * 1024).with_ncols_hint(4)
    r_v = run_experiment([JobSpec("v", 4, w(), strategy="vanilla")], cluster_spec=small_spec())
    r_c = run_experiment([JobSpec("c", 4, w(), strategy="collective")], cluster_spec=small_spec())
    assert r_c.jobs[0].elapsed_s < r_v.jobs[0].elapsed_s


def test_collective_write_round_trip():
    res = run_experiment(
        [JobSpec("cw", 4, MpiIoTest(file_size=2 * 1024 * 1024, op="W"),
                 strategy="collective")],
        cluster_spec=small_spec(),
    )
    assert res.jobs[0].bytes_written == 2 * 1024 * 1024


def test_prefetch_engine_hides_io_when_compute_bound():
    """Strategy 2's reason to exist: with plenty of compute, prefetching
    hides I/O almost entirely."""
    def w(cpc):
        return SyntheticPattern(
            file_size=2 * 1024 * 1024, request_bytes=64 * 1024, compute_per_call=cpc
        )
    r_v = run_experiment([JobSpec("v", 2, w(0.01), strategy="vanilla")],
                         cluster_spec=small_spec())
    r_p = run_experiment([JobSpec("p", 2, w(0.01), strategy="prefetch")],
                         cluster_spec=small_spec())
    assert r_p.jobs[0].elapsed_s < r_v.jobs[0].elapsed_s
    eng = r_p.mpi_jobs[0].engine
    assert eng.n_prefetch_hits > 0


def test_prefetch_engine_handles_writes_directly():
    res = run_experiment(
        [JobSpec("pw", 2, SyntheticPattern(file_size=1024 * 1024, op="W"),
                 strategy="prefetch")],
        cluster_spec=small_spec(),
    )
    assert res.jobs[0].bytes_written == 1024 * 1024
