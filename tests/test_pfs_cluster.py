"""Integration tests: client -> network -> data server -> disk round trips."""

import pytest

from repro.cluster import ClusterSpec, build_cluster
from repro.disk.drive import DiskParams


def small_spec(**kw):
    defaults = dict(
        n_compute_nodes=2,
        n_data_servers=3,
        disk=DiskParams(capacity_bytes=2 * 10**9),
        placement="packed",
    )
    defaults.update(kw)
    return ClusterSpec(**defaults)


def test_cluster_builds_with_defaults():
    cluster = build_cluster()
    assert len(cluster.data_servers) == 9
    assert len(cluster.clients) == 8
    assert cluster.spec.metadata_node_id == 8 + 9


def test_spec_node_id_layout():
    spec = small_spec()
    assert spec.compute_node_id(0) == 0
    assert spec.data_server_node_id(0) == 2
    assert spec.metadata_node_id == 5
    assert spec.n_nodes == 6
    with pytest.raises(ValueError):
        spec.compute_node_id(2)
    with pytest.raises(ValueError):
        spec.data_server_node_id(3)


def test_read_round_trip():
    cluster = build_cluster(small_spec())
    sim = cluster.sim
    f = cluster.fs.create("input.dat", 1024 * 1024)
    client = cluster.clients[0]

    def proc():
        yield from client.io(f, 0, 256 * 1024, "R", stream_id=1)

    sim.run_until_event(sim.process(proc()))
    assert client.bytes_read == 256 * 1024
    assert cluster.total_bytes_served() == 256 * 1024
    assert sim.now > 0


def test_write_round_trip():
    cluster = build_cluster(small_spec())
    sim = cluster.sim
    f = cluster.fs.create("out.dat", 1024 * 1024)
    client = cluster.clients[1]

    def proc():
        yield from client.io(f, 0, 512 * 1024, "W", stream_id=2)

    sim.run_until_event(sim.process(proc()))
    assert client.bytes_written == 512 * 1024
    # Write payload striped over all 3 servers (8 units round-robin).
    assert all(ds.bytes_served > 0 for ds in cluster.data_servers)


def test_read_out_of_range_rejected():
    cluster = build_cluster(small_spec())
    f = cluster.fs.create("small.dat", 64 * 1024)
    client = cluster.clients[0]
    with pytest.raises(ValueError):
        list(client.io(f, 0, 128 * 1024, "R", stream_id=0))


@pytest.mark.parametrize("offset, length", [(4096, -1), (4096, -4096), (0, -1)])
def test_negative_length_rejected_by_io(offset, length):
    """``io`` checks the length itself: a single-piece call never reaches
    ``StripeLayout.split``, and ``offset + length`` stays inside the file."""
    cluster = build_cluster(small_spec())
    f = cluster.fs.create("small.dat", 64 * 1024)
    with pytest.raises(ValueError, match="outside file"):
        list(cluster.clients[0].io(f, offset, length, "R", stream_id=0))
    assert cluster.total_bytes_served() == 0


def test_large_read_faster_than_scattered_small_reads():
    """One striped 1 MB read beats 16 scattered 64 KB reads of the same
    total -- the disk-efficiency premise end to end."""
    import numpy as np

    spec = small_spec(placement="spread")
    cluster = build_cluster(spec)
    sim = cluster.sim
    files = [cluster.fs.create(f"f{i}", 16 * 1024 * 1024) for i in range(8)]
    client = cluster.clients[0]

    def contiguous():
        yield from client.io(files[0], 0, 1024 * 1024, "R", stream_id=1)

    sim.run_until_event(sim.process(contiguous()))
    t_contig = sim.now

    cluster2 = build_cluster(spec)
    sim2 = cluster2.sim
    files2 = [cluster2.fs.create(f"f{i}", 16 * 1024 * 1024) for i in range(8)]
    client2 = cluster2.clients[0]
    rng = np.random.default_rng(0)

    def scattered():
        for k in range(16):
            f = files2[int(rng.integers(0, 8))]
            off = int(rng.integers(0, (f.size - 65536) // 65536)) * 65536
            yield from client2.io(f, off, 65536, "R", stream_id=1)

    sim2.run_until_event(sim2.process(scattered()))
    assert t_contig < sim2.now


def test_locality_daemon_samples():
    cluster = build_cluster(small_spec(locality_interval_s=0.1))
    sim = cluster.sim
    f = cluster.fs.create("ld.dat", 4 * 1024 * 1024)
    client = cluster.clients[0]

    def proc():
        for i in range(8):
            yield from client.io(f, i * 256 * 1024, 256 * 1024, "R", stream_id=1)

    sim.run_until_event(sim.process(proc()))
    sim.run(until=sim.now + 0.5)
    daemon = cluster.locality_daemons[0]
    assert len(daemon.samples) > 0
    # With some requests served, at least one active sample exists.
    assert daemon.recent_seek_dist() is not None


def test_traced_cluster_records_accesses():
    cluster = build_cluster(small_spec(trace_disks=True))
    sim = cluster.sim
    f = cluster.fs.create("tr.dat", 1024 * 1024)
    client = cluster.clients[0]

    def proc():
        yield from client.io(f, 0, 512 * 1024, "R", stream_id=1)

    sim.run_until_event(sim.process(proc()))
    assert any(len(t) > 0 for t in cluster.traces)


def test_raid_cluster_builds_and_serves():
    cluster = build_cluster(small_spec(raid_members=2, raid_level=0))
    sim = cluster.sim
    f = cluster.fs.create("r.dat", 1024 * 1024)
    client = cluster.clients[0]

    def proc():
        yield from client.io(f, 0, 256 * 1024, "R", stream_id=1)

    sim.run_until_event(sim.process(proc()))
    assert cluster.total_bytes_served() == 256 * 1024


def test_concurrent_clients_interfere():
    """Two clients streaming different files are slower than one alone
    (disk interference), but both complete."""
    spec = small_spec(placement="spread")

    def run_n(n_clients):
        cluster = build_cluster(spec)
        sim = cluster.sim
        files = [cluster.fs.create(f"c{i}", 8 * 1024 * 1024) for i in range(n_clients)]
        procs = []
        for i in range(n_clients):

            def stream(i=i):
                for k in range(16):
                    yield from cluster.clients[i].io(
                        files[i], k * 512 * 1024, 512 * 1024, "R", stream_id=i
                    )

            procs.append(sim.process(stream()))
        for p in procs:
            sim.run_until_event(p)
        return sim.now

    t1 = run_n(1)
    t2 = run_n(2)
    assert t2 > t1 * 1.3
