"""Tests for data-server internals: page cache integration, readahead,
list I/O, I/O-context folding."""

from repro.cluster import ClusterSpec, build_cluster
from repro.disk.drive import DiskParams
from repro.pfs.dataserver import ServerRequest


def small_cluster(**kw):
    defaults = dict(
        n_compute_nodes=2,
        n_data_servers=1,
        disk=DiskParams(capacity_bytes=2 * 10**9),
        placement="packed",
    )
    defaults.update(kw)
    return build_cluster(ClusterSpec(**defaults))


def serve(cluster, server, req):
    done = server.handle(req)
    cluster.sim.run_until_event(done)


def rd(file_name, offset, length, stream=1):
    return ServerRequest(
        file_name=file_name, object_offset=offset, length=length, op="R",
        stream_id=stream,
    )


def test_repeated_read_hits_page_cache():
    cluster = small_cluster()
    cluster.fs.create("f.dat", 1024 * 1024)
    ds = cluster.data_servers[0]
    serve(cluster, ds, rd("f.dat", 0, 64 * 1024))
    misses = ds.page_cache.n_misses
    serve(cluster, ds, rd("f.dat", 0, 64 * 1024))
    assert ds.page_cache.n_misses == misses  # second read is a pure hit
    assert ds.page_cache.n_hits >= 1


def test_sequential_reads_trigger_readahead():
    cluster = small_cluster()
    cluster.fs.create("f.dat", 4 * 1024 * 1024)
    ds = cluster.data_servers[0]
    # Stream sequentially with one context.
    for i in range(24):
        serve(cluster, ds, rd("f.dat", i * 16 * 1024, 16 * 1024, stream=5))
    cluster.sim.run(until=cluster.sim.now + 0.1)  # let async readahead land
    # The disk read more than was requested (the readahead extensions)...
    read_sectors = ds.device.stats.total_bytes
    assert read_sectors > 24 * 16 * 1024
    # ...and most requests never touched the disk.
    assert ds.page_cache.n_hits > ds.page_cache.n_misses


def test_write_invalidates_page_cache():
    cluster = small_cluster()
    cluster.fs.create("f.dat", 1024 * 1024)
    ds = cluster.data_servers[0]
    serve(cluster, ds, rd("f.dat", 0, 64 * 1024))
    done = ds.handle(
        ServerRequest(file_name="f.dat", object_offset=0, length=64 * 1024,
                      op="W", stream_id=1)
    )
    cluster.sim.run_until_event(done)
    assert not ds.page_cache.contains("f.dat", 0, 64 * 1024)


def test_writes_reach_disk():
    cluster = small_cluster()
    cluster.fs.create("f.dat", 1024 * 1024)
    ds = cluster.data_servers[0]
    done = ds.handle(
        ServerRequest(file_name="f.dat", object_offset=0, length=256 * 1024,
                      op="W", stream_id=1)
    )
    cluster.sim.run_until_event(done)
    assert ds.device.stats.total_bytes >= 256 * 1024
    assert ds.bytes_served == 256 * 1024


def test_handle_list_submits_batch():
    cluster = small_cluster()
    cluster.fs.create("f.dat", 4 * 1024 * 1024)
    ds = cluster.data_servers[0]
    reqs = [rd("f.dat", i * 256 * 1024, 64 * 1024) for i in range(8)]
    done = ds.handle_list(reqs)
    cluster.sim.run_until_event(done)
    assert ds.n_requests == 8
    assert ds.bytes_served == 8 * 64 * 1024


def test_io_context_folding():
    cluster = small_cluster()
    ds = cluster.data_servers[0]
    assert ds._io_context(1) == 1
    assert ds._io_context(5) == 1  # 5 % 4
    assert ds._io_context(4) == 0


def test_large_request_split_at_max_io():
    cluster = small_cluster()
    cluster.fs.create("big.dat", 4 * 1024 * 1024)
    ds = cluster.data_servers[0]
    serve(cluster, ds, rd("big.dat", 0, 2 * 1024 * 1024))
    # 2 MB at a 512 KB cap -> at least 4 block submissions.
    assert ds.block_layer.stats.n_submitted >= 4


def test_concurrent_overlapping_reads_single_disk_fetch():
    """Two simultaneous reads of the same range: one disk fetch, the
    second waits on the in-flight read (page-lock semantics)."""
    cluster = small_cluster()
    cluster.fs.create("f.dat", 1024 * 1024)
    ds = cluster.data_servers[0]
    d1 = ds.handle(rd("f.dat", 0, 64 * 1024, stream=1))
    d2 = ds.handle(rd("f.dat", 0, 64 * 1024, stream=2))
    cluster.sim.run_until_event(d1)
    cluster.sim.run_until_event(d2)
    # Only one miss was taken for the shared range.
    assert ds.page_cache.n_misses == 1
    assert ds.page_cache.n_hits == 1


def test_locality_daemon_reports_none_when_idle():
    cluster = small_cluster()
    cluster.sim.run(until=3.0)
    assert cluster.locality_daemons[0].recent_seek_dist() is None
