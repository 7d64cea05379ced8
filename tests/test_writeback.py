"""Tests for the server-side write-back buffer and flusher."""

import pytest

from repro.cluster import ClusterSpec, build_cluster
from repro.disk.drive import DiskParams
from repro.pfs.dataserver import ServerRequest
from repro.pfs.writeback import WritebackBuffer


def wb_cluster(**kw):
    defaults = dict(
        n_compute_nodes=2,
        n_data_servers=1,
        disk=DiskParams(capacity_bytes=2 * 10**9),
        placement="packed",
        server_writeback_interval_s=0.5,
    )
    defaults.update(kw)
    return build_cluster(ClusterSpec(**defaults))


def wr(file_name, offset, length, stream=1):
    return ServerRequest(
        file_name=file_name, object_offset=offset, length=length, op="W",
        stream_id=stream,
    )


def test_write_completes_before_disk():
    cluster = wb_cluster()
    cluster.fs.create("f.dat", 1024 * 1024)
    ds = cluster.data_servers[0]
    done = ds.handle(wr("f.dat", 0, 256 * 1024))
    cluster.sim.run_until_event(done)
    # Completion was near-instant (RAM copy), disk untouched so far.
    assert cluster.sim.now < 0.01
    assert ds.device.stats.total_bytes == 0
    assert ds.writeback.dirty_bytes == 256 * 1024


def test_flusher_writes_within_interval():
    cluster = wb_cluster(server_writeback_interval_s=0.25)
    cluster.fs.create("f.dat", 1024 * 1024)
    ds = cluster.data_servers[0]
    done = ds.handle(wr("f.dat", 0, 256 * 1024))
    cluster.sim.run_until_event(done)
    cluster.sim.run(until=1.0)
    assert ds.device.stats.total_bytes >= 256 * 1024
    assert ds.writeback.n_flushes >= 1
    assert ds.writeback.dirty_bytes == 0


def test_flusher_merges_scattered_writes():
    """Many tiny adjacent writes flush as few large disk requests."""
    cluster = wb_cluster(server_writeback_interval_s=0.25)
    cluster.fs.create("f.dat", 4 * 1024 * 1024)
    ds = cluster.data_servers[0]
    for i in range(64):
        done = ds.handle(wr("f.dat", i * 4096, 4096))
        cluster.sim.run_until_event(done)
    cluster.sim.run(until=1.0)
    # 64 x 4 KB merged into one dirty range -> one 256 KB block submission.
    assert ds.device.stats.n_requests <= 4
    assert ds.writeback.flushed_bytes == 64 * 4096


def test_read_after_write_served_from_ram():
    cluster = wb_cluster()
    cluster.fs.create("f.dat", 1024 * 1024)
    ds = cluster.data_servers[0]
    done = ds.handle(wr("f.dat", 0, 64 * 1024))
    cluster.sim.run_until_event(done)
    done = ds.handle(
        ServerRequest(file_name="f.dat", object_offset=0, length=64 * 1024,
                      op="R", stream_id=2)
    )
    cluster.sim.run_until_event(done)
    assert ds.device.stats.total_bytes == 0  # never touched the disk


def test_memory_pressure_forces_early_flush():
    cluster = wb_cluster(
        server_writeback_interval_s=60.0, server_writeback_max_dirty=1024 * 1024
    )
    cluster.fs.create("f.dat", 64 * 1024 * 1024)
    ds = cluster.data_servers[0]
    assert ds.writeback.max_dirty_bytes == 1024 * 1024
    for i in range(5):
        done = ds.handle(wr("f.dat", i * 256 * 1024, 256 * 1024))
        cluster.sim.run_until_event(done)
    cluster.sim.run(until=1.0)  # far below the 60 s interval
    assert ds.writeback.n_flushes >= 1


def test_writeback_dirty_range_merging():
    cluster = wb_cluster()
    ds = cluster.data_servers[0]
    wb = ds.writeback
    wb.add("f", 0, 100)
    wb.add("f", 100, 100)
    wb.add("f", 50, 100)
    assert wb._dirty["f"] == [(0, 200)]
    assert wb.dirty_bytes == 200


def test_writeback_covers():
    cluster = wb_cluster()
    wb = cluster.data_servers[0].writeback
    wb.add("f", 100, 100)
    assert wb.covers("f", 120, 50)
    assert not wb.covers("f", 90, 50)
    assert not wb.covers("g", 120, 50)
    assert wb.covers("f", 0, 0)


def test_writeback_validation():
    cluster = wb_cluster()
    with pytest.raises(ValueError):
        WritebackBuffer(cluster.sim, cluster.data_servers[0], flush_interval_s=0)
    with pytest.raises(ValueError):
        WritebackBuffer(cluster.sim, cluster.data_servers[0], max_dirty_bytes=0)


def test_vanilla_writes_faster_with_writeback():
    """End to end: the kernel flusher batches vanilla's scattered writes."""
    from repro.runner import JobSpec, run_experiment
    from repro.workloads import MpiIoTest

    def run(wb_interval):
        spec = ClusterSpec(
            n_compute_nodes=4,
            n_data_servers=3,
            disk=DiskParams(capacity_bytes=2 * 10**9),
            server_writeback_interval_s=wb_interval,
        )
        res = run_experiment(
            [JobSpec("w", 8, MpiIoTest(file_size=8 * 1024 * 1024, op="W"),
                     strategy="vanilla")],
            cluster_spec=spec,
        )
        return res.jobs[0].elapsed_s

    assert run(1.0) < run(None)
