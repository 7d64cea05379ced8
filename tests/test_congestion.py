"""Tests for block-layer congestion control (``NR_REQUESTS``)."""

from repro.disk import DiskDrive, DiskParams
from repro.iosched import BlockLayer, NoopScheduler, blocklayer
from repro.sim import Simulator


def make_layer(sim):
    drive = DiskDrive(sim, DiskParams(capacity_bytes=2 * 10**9))
    return BlockLayer(sim, drive, NoopScheduler())


def test_congested_flag(monkeypatch):
    monkeypatch.setattr(blocklayer, "NR_REQUESTS", 2)
    sim = Simulator()
    layer = make_layer(sim)
    layer.submit(0, 8)
    assert not layer.congested
    layer.submit(10_000, 8)
    layer.submit(20_000, 8)
    assert layer.congested


def test_throttle_waits_until_drain(monkeypatch):
    monkeypatch.setattr(blocklayer, "NR_REQUESTS", 4)
    sim = Simulator()
    layer = make_layer(sim)
    log = []

    def flooder():
        for i in range(4):
            layer.submit(i * 10_000, 8)
        # Queue is now full; throttle should block until it drains.
        yield from layer.throttle()
        log.append(("resumed", sim.now, layer.queue_depth))
        layer.submit(90_000, 8)

    sim.run_until_event(sim.process(flooder()))
    sim.run(until=sim.now + 1.0)
    assert log and log[0][2] < 4


def test_throttle_noop_when_uncongested():
    sim = Simulator()
    layer = make_layer(sim)

    def proc():
        yield from layer.throttle()
        return "ok"

    # An uncongested throttle yields nothing and returns immediately.
    gen = layer.throttle()
    assert list(gen) == []


def test_server_batch_respects_cap():
    """A DualPar-sized list batch never drives the elevator queue far
    beyond ``NR_REQUESTS``."""
    from repro.cluster import ClusterSpec, build_cluster
    from repro.pfs.dataserver import ServerRequest

    cluster = build_cluster(
        ClusterSpec(
            n_compute_nodes=2,
            n_data_servers=1,
            disk=DiskParams(capacity_bytes=2 * 10**9),
            placement="packed",
        )
    )
    ds = cluster.data_servers[0]
    cluster.fs.create("big.dat", 256 * 1024 * 1024)
    # 512 pieces of 256 KB -> 128 MB, far beyond NR_REQUESTS = 128 units.
    reqs = [
        ServerRequest(file_name="big.dat", object_offset=i * 256 * 1024,
                      length=256 * 1024, op="R", stream_id=i)
        for i in range(512)
    ]
    max_depth = 0
    done = ds.handle_list(reqs)
    sim = cluster.sim
    while not done.processed:
        sim.step()
        max_depth = max(max_depth, ds.block_layer.queue_depth)
    # Small transient overshoot allowed (one piece per in-flight handler).
    assert max_depth <= blocklayer.NR_REQUESTS + 64
