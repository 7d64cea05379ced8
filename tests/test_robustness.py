"""Robustness: determinism, degraded hardware, stragglers, adversarial mixes."""

import pytest

from repro.cluster import ClusterSpec, build_cluster
from repro.core import pec
from repro.disk.drive import DiskParams
from repro.disk.seek import SeekModel
from repro.mpi.ops import ComputeOp, IoOp, Segment
from repro.runner import JobSpec, run_experiment
from repro.workloads import DependentReads, MpiIoTest, SyntheticPattern
from repro.workloads.base import FileSpec, Workload


def small_spec(**kw):
    defaults = dict(
        n_compute_nodes=4,
        n_data_servers=3,
        disk=DiskParams(capacity_bytes=2 * 10**9),
    )
    defaults.update(kw)
    return ClusterSpec(**defaults)


# ------------------------------------------------------------ determinism


@pytest.mark.parametrize("strategy", ["vanilla", "collective", "prefetch",
                                      "dualpar-forced"])
def test_simulation_is_deterministic(strategy):
    """The same experiment run twice produces bit-identical timings."""

    def run():
        res = run_experiment(
            [JobSpec("d", 8, MpiIoTest(file_size=4 * 1024 * 1024),
                     strategy=strategy)],
            cluster_spec=small_spec(),
        )
        ds = res.cluster.data_servers[0]
        return (
            res.jobs[0].end_s,
            res.jobs[0].io_time_s,
            ds.device.stats.n_requests,
            ds.device.stats.total_seek_sectors,
        )

    assert run() == run()


def test_concurrent_jobs_deterministic():
    def run():
        res = run_experiment(
            [
                JobSpec("a", 4, SyntheticPattern(file_name="a.dat",
                                                 file_size=2 * 1024 * 1024,
                                                 pattern="random", seed=1)),
                JobSpec("b", 4, SyntheticPattern(file_name="b.dat",
                                                 file_size=2 * 1024 * 1024,
                                                 pattern="random", seed=2),
                        delay_s=0.05),
            ],
            cluster_spec=small_spec(),
        )
        return tuple(j.end_s for j in res.jobs)

    assert run() == run()


# --------------------------------------------------------- degraded disks


def degrade_server(cluster, index, factor=4.0):
    """Inject a mechanically degraded drive on one server: the spindle
    spins ``factor``x slower (rotation and media transfer both suffer)
    and seeks take ``factor``x longer."""
    import dataclasses

    drive = cluster.data_servers[index].device
    drive.params = dataclasses.replace(
        drive.params,
        rpm=drive.params.rpm / factor,
        track_to_track_s=drive.params.track_to_track_s * factor,
        average_seek_s=drive.params.average_seek_s * factor,
        full_stroke_s=drive.params.full_stroke_s * factor,
    )
    sm = drive.seek_model
    drive.seek_model = SeekModel(
        n_cylinders=sm.n_cylinders,
        track_to_track_s=sm.track_to_track_s * factor,
        average_s=sm.average_s * factor,
        full_stroke_s=sm.full_stroke_s * factor,
    )


def run_with_degraded(strategy, degrade=True):
    cluster = build_cluster(small_spec())
    if degrade:
        degrade_server(cluster, 0)
    from repro.core import DualParSystem
    from repro.mpi.runtime import MpiRuntime
    from repro.runner.strategies import resolve_strategy

    rt = MpiRuntime(cluster)
    system = DualParSystem(rt) if strategy.startswith("dualpar") else None
    w = SyntheticPattern(file_size=8 * 1024 * 1024, pattern="random")
    cluster.fs.create(w.file_name, w.file_size)
    job = rt.launch("deg", 8, w, resolve_strategy(strategy, system))
    rt.run_to_completion()
    return job


@pytest.mark.parametrize("strategy", ["vanilla", "dualpar-forced"])
def test_degraded_server_slows_but_completes(strategy):
    healthy = run_with_degraded(strategy, degrade=False)
    degraded = run_with_degraded(strategy, degrade=True)
    assert degraded.finished
    assert degraded.total_io_bytes() == healthy.total_io_bytes()
    assert degraded.elapsed_s > healthy.elapsed_s


def test_locality_daemon_sees_degradation():
    """The degraded server's slot samples still report sanely (the EMC
    inputs remain well-formed under hardware asymmetry)."""
    cluster = build_cluster(small_spec(locality_interval_s=0.1))
    degrade_server(cluster, 0, factor=8.0)
    from repro.mpi.runtime import MpiRuntime
    from repro.runner.strategies import resolve_strategy

    rt = MpiRuntime(cluster)
    w = SyntheticPattern(file_size=4 * 1024 * 1024, pattern="random")
    cluster.fs.create(w.file_name, w.file_size)
    rt.launch("x", 8, w, resolve_strategy("vanilla"))
    rt.run_to_completion()
    rt.sim.run(until=rt.sim.now + 0.2)
    d = cluster.locality_daemons[0]
    assert d.recent_seek_dist() is not None
    assert d.recent_seek_dist() >= 0


# --------------------------------------------------------------- stragglers


class StragglerWorkload(Workload):
    """Rank 0 computes 10x longer between reads than its peers."""

    name = "straggler"

    def ops(self, rank, size):
        factor = 10.0 if rank == 0 else 1.0
        for i in range(8):
            yield ComputeOp(0.002 * factor)
            yield IoOp(
                file_name="st.dat",
                op="R",
                segments=(Segment((rank * 8 + i) * 64 * 1024, 64 * 1024),),
            )

    def files(self):
        return [FileSpec("st.dat", 64 * 1024 * 1024)]


def test_straggler_rank_does_not_deadlock_dualpar(monkeypatch):
    monkeypatch.setattr(pec, "DEADLINE_MAX_S", 0.5)
    res = run_experiment(
        [JobSpec("st", 8, StragglerWorkload(), strategy="dualpar-forced")],
        cluster_spec=small_spec(),
    )
    assert res.jobs[0].bytes_read == 8 * 8 * 64 * 1024


# ------------------------------------------------------------ mixed fleet


def test_mixed_strategies_share_cluster():
    """Jobs under different engines coexist on one cluster."""
    res = run_experiment(
        [
            JobSpec("v", 4, SyntheticPattern(file_name="v.dat",
                                             file_size=2 * 1024 * 1024),
                    strategy="vanilla"),
            JobSpec("c", 4, MpiIoTest(file_name="c.dat",
                                      file_size=2 * 1024 * 1024),
                    strategy="collective"),
            JobSpec("d", 4, SyntheticPattern(file_name="d.dat",
                                             file_size=2 * 1024 * 1024,
                                             pattern="random"),
                    strategy="dualpar-forced"),
        ],
        cluster_spec=small_spec(),
    )
    for j in res.jobs:
        assert j.total_bytes == 2 * 1024 * 1024


def test_adversary_and_friendly_job_coexist():
    """A mis-prefetching job must not poison a well-behaved DualPar job
    sharing the same system (per-job mode state)."""
    res = run_experiment(
        [
            JobSpec("good", 4, SyntheticPattern(file_name="g.dat",
                                                file_size=4 * 1024 * 1024),
                    strategy="dualpar-forced"),
            JobSpec("bad", 4, DependentReads(file_name="b.dat",
                                             file_size=2 * 1024 * 1024),
                    strategy="dualpar-forced"),
        ],
        cluster_spec=small_spec(),
    )
    good = res.mpi_jobs[0].engine
    bad = res.mpi_jobs[1].engine
    assert res.job("good").bytes_read == 4 * 1024 * 1024
    # The adversary's wasted prefetches are attributed to it alone.
    assert bad.n_direct_fallback_bytes > 0
    assert good.n_direct_fallback_bytes == 0
