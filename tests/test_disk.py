"""Unit & property tests for the disk model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.disk import DiskDrive, DiskGeometry, DiskParams, SeekModel
from repro.disk.geometry import SECTOR_BYTES
from repro.sim import Simulator


# ----------------------------------------------------------------- geometry


def test_geometry_cylinder_mapping():
    geo = DiskGeometry(total_sectors=9600, sectors_per_track=1200, heads=4)
    assert geo.sectors_per_cylinder == 4800
    assert geo.n_cylinders == 2
    assert geo.cylinder_of(0) == 0
    assert geo.cylinder_of(4799) == 0
    assert geo.cylinder_of(4800) == 1


def test_geometry_angle_wraps_per_track():
    geo = DiskGeometry(total_sectors=4800, sectors_per_track=1200, heads=4)
    assert geo.angle_of(0) == 0.0
    assert geo.angle_of(600) == pytest.approx(0.5)
    assert geo.angle_of(1200) == 0.0  # next track starts at angle 0


def test_geometry_from_capacity_rounds_up():
    geo = DiskGeometry.from_capacity(1_000_000)
    assert geo.total_sectors * SECTOR_BYTES >= 1_000_000


def test_geometry_rejects_bad_lbn():
    geo = DiskGeometry(total_sectors=100)
    with pytest.raises(ValueError):
        geo.cylinder_of(100)
    with pytest.raises(ValueError):
        geo.cylinder_of(-1)


def test_geometry_rejects_bad_params():
    with pytest.raises(ValueError):
        DiskGeometry(total_sectors=0)
    with pytest.raises(ValueError):
        DiskGeometry(total_sectors=10, sectors_per_track=0)


# ----------------------------------------------------------------- seek model


def test_seek_zero_distance_is_free():
    sm = SeekModel(n_cylinders=100_000)
    assert sm.seek_time(0) == 0.0


def test_seek_single_track():
    sm = SeekModel(n_cylinders=100_000)
    assert sm.seek_time(1) == pytest.approx(sm.track_to_track_s, rel=0.2)


def test_seek_hits_calibration_points():
    sm = SeekModel(n_cylinders=90_000, average_s=0.008, full_stroke_s=0.016)
    assert sm.seek_time(30_000) == pytest.approx(0.008, rel=0.05)
    assert sm.seek_time(90_000) == pytest.approx(0.016, rel=0.05)


def test_seek_monotone_nondecreasing():
    sm = SeekModel(n_cylinders=50_000)
    times = [sm.seek_time(d) for d in range(0, 50_000, 500)]
    assert all(b >= a - 1e-12 for a, b in zip(times, times[1:]))


def test_seek_symmetric():
    sm = SeekModel(n_cylinders=10_000)
    assert sm.seek_time(-500) == sm.seek_time(500)


def test_seek_rejects_bad_calibration():
    with pytest.raises(ValueError):
        SeekModel(n_cylinders=1000, track_to_track_s=0.01, average_s=0.005)
    with pytest.raises(ValueError):
        SeekModel(n_cylinders=1)


@given(st.integers(min_value=0, max_value=99_999))
@settings(max_examples=100, deadline=None)
def test_seek_time_bounds_property(d):
    """Seek time is within [0, ~full stroke] for all distances."""
    sm = SeekModel(n_cylinders=100_000)
    t = sm.seek_time(d)
    assert 0.0 <= t <= sm.full_stroke_s * 1.05


# ----------------------------------------------------------------- drive


def small_params(**kw) -> DiskParams:
    defaults = dict(capacity_bytes=256 * 1024 * 1024)
    defaults.update(kw)
    return DiskParams(**defaults)


def run_service(sim, drive, reqs):
    """Serve requests back-to-back; return total elapsed."""

    def proc():
        for lbn, n in reqs:
            yield from drive.service(lbn, n)

    p = sim.process(proc())
    sim.run_until_event(p)
    return sim.now


def test_sequential_read_achieves_media_rate():
    sim = Simulator()
    params = small_params()
    drive = DiskDrive(sim, params)
    total_sectors = 65536  # 32 MB
    chunk = 256
    reqs = [(lbn, chunk) for lbn in range(0, total_sectors, chunk)]
    elapsed = run_service(sim, drive, reqs)
    rate = total_sectors * SECTOR_BYTES / elapsed
    # First request pays a rotational wait; afterwards we stream.
    assert rate == pytest.approx(params.media_rate_bytes_s, rel=0.05)


def test_random_reads_much_slower_than_sequential():
    """The paper's core premise: >10x gap between random and sequential."""
    sim = Simulator()
    drive = DiskDrive(sim, small_params(capacity_bytes=2 * 10**9))
    import numpy as np

    rng = np.random.default_rng(42)
    n = 200
    chunk = 32  # 16 KB
    lbns = rng.integers(0, drive.total_sectors - chunk, size=n)
    elapsed_rand = run_service(sim, drive, [(int(lbn), chunk) for lbn in lbns])
    rand_rate = n * chunk * SECTOR_BYTES / elapsed_rand

    sim2 = Simulator()
    drive2 = DiskDrive(sim2, small_params(capacity_bytes=2 * 10**9))
    seq = [(i * chunk, chunk) for i in range(n)]
    elapsed_seq = run_service(sim2, drive2, seq)
    seq_rate = n * chunk * SECTOR_BYTES / elapsed_seq

    assert seq_rate / rand_rate > 10


def test_sorted_nearby_faster_than_scattered():
    """Elevator-ordered service beats the same set scattered."""
    import numpy as np

    chunk = 32
    rng = np.random.default_rng(7)
    lbns = sorted(int(x) for x in rng.integers(0, 4_000_000, size=100))

    sim = Simulator()
    drive = DiskDrive(sim, small_params(capacity_bytes=4 * 10**9))
    t_sorted = run_service(sim, drive, [(lbn, chunk) for lbn in lbns])

    shuffled = list(lbns)
    rng.shuffle(shuffled)
    sim2 = Simulator()
    drive2 = DiskDrive(sim2, small_params(capacity_bytes=4 * 10**9))
    t_shuffled = run_service(sim2, drive2, [(lbn, chunk) for lbn in shuffled])

    assert t_sorted < t_shuffled * 0.6


def test_service_time_includes_rotation_deterministically():
    sim = Simulator()
    drive = DiskDrive(sim, small_params())
    t1 = drive.service_time(1000, 8)
    t2 = drive.service_time(1000, 8)
    assert t1 == t2  # pure function at fixed clock/head state


def test_drive_tracks_seek_distance_stats():
    sim = Simulator()
    drive = DiskDrive(sim, small_params())
    run_service(sim, drive, [(0, 8), (10_000, 8), (20_000, 8)])
    assert drive.stats.n_requests == 3
    # First request has no predecessor -> 0; then |10000 - 8|, |20000 - 10008|.
    assert drive.stats.total_seek_sectors == (10_000 - 8) + (20_000 - 10_008)


def test_drive_rejects_out_of_range():
    sim = Simulator()
    drive = DiskDrive(sim, small_params())
    with pytest.raises(ValueError):
        drive.service_time(drive.total_sectors - 4, 8)
    with pytest.raises(ValueError):
        drive.service_time(0, 0)


def test_drive_on_access_hook():
    sim = Simulator()
    seen = []
    drive = DiskDrive(sim, small_params(), on_access=lambda t, l, n, op: seen.append((t, l, n, op)))
    run_service(sim, drive, [(64, 8)])
    assert seen == [(0.0, 64, 8, "R")]


def test_drive_concurrent_service_rejected():
    sim = Simulator()
    drive = DiskDrive(sim, small_params())

    def a():
        yield from drive.service(0, 64)

    def b():
        yield from drive.service(128, 64)

    sim.process(a())
    sim.process(b())
    with pytest.raises(RuntimeError, match="concurrent"):
        sim.run()


def test_media_rate_matches_params():
    p = DiskParams(rpm=7200, sectors_per_track=1200)
    assert p.media_rate_bytes_s == pytest.approx(1200 * 512 / (60 / 7200))
    assert p.media_rate_bytes_s == pytest.approx(73.7e6, rel=0.01)

