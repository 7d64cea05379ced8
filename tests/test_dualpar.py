"""Integration tests for DualPar: EMC, PEC cycles, CRM, mis-prefetch."""

import pytest

from repro.cluster import ClusterSpec
from repro.core import DualParConfig
from repro.core.config import MISPREFETCH_THRESHOLD
from repro.disk.drive import DiskParams
from repro.runner import JobSpec, run_experiment
from repro.workloads import DependentReads, Hpio, MpiIoTest, SyntheticPattern


def small_spec(**kw):
    defaults = dict(
        n_compute_nodes=4,
        n_data_servers=3,
        disk=DiskParams(capacity_bytes=4 * 10**9),
    )
    defaults.update(kw)
    return ClusterSpec(**defaults)


# ----------------------------------------------------------------- config


def test_config_defaults_match_paper():
    cfg = DualParConfig()
    assert cfg.quota_bytes == 1024 * 1024
    assert cfg.t_improvement == 3.0
    assert cfg.io_ratio_enter == 0.80
    assert MISPREFETCH_THRESHOLD == 0.20


def test_config_validation():
    with pytest.raises(ValueError):
        DualParConfig(io_ratio_enter=0.5, io_ratio_exit=0.6)
    with pytest.raises(ValueError):
        DualParConfig(t_improvement=0)
    with pytest.raises(ValueError):
        DualParConfig(force_mode="sideways")
    for bad in (0.0, -1.0):
        with pytest.raises(ValueError, match="emc_interval_s"):
            DualParConfig(emc_interval_s=bad)
    with pytest.raises(ValueError, match="hole_threshold_bytes"):
        DualParConfig(hole_threshold_bytes=-1)
    DualParConfig(hole_threshold_bytes=0)  # no hole bridging is valid


# ------------------------------------------------------------ forced mode


def test_forced_datadriven_runs_cycles():
    res = run_experiment(
        [JobSpec("dp", 8, MpiIoTest(file_size=8 * 1024 * 1024),
                 strategy="dualpar-forced")],
        cluster_spec=small_spec(),
    )
    eng = res.mpi_jobs[0].engine
    assert eng.pec.n_cycles >= 1
    assert eng.crm.prefetched_bytes > 0
    assert eng.n_cache_hits > 0
    assert res.jobs[0].bytes_read == 8 * 1024 * 1024


def test_forced_datadriven_beats_vanilla_on_io_bound_read():
    def w():
        return MpiIoTest(file_size=8 * 1024 * 1024)
    r_v = run_experiment([JobSpec("v", 8, w(), strategy="vanilla")],
                         cluster_spec=small_spec())
    r_d = run_experiment([JobSpec("d", 8, w(), strategy="dualpar-forced")],
                         cluster_spec=small_spec())
    assert r_d.jobs[0].elapsed_s < r_v.jobs[0].elapsed_s


def test_dualpar_write_buffering_and_writeback():
    res = run_experiment(
        [JobSpec("w", 8, MpiIoTest(file_size=8 * 1024 * 1024, op="W"),
                 strategy="dualpar-forced")],
        cluster_spec=small_spec(),
    )
    eng = res.mpi_jobs[0].engine
    assert eng.crm.writeback_bytes == 8 * 1024 * 1024
    # All dirty data flushed by job end.
    assert eng.cache.dirty_chunks(res.mpi_jobs[0].job_id) == []
    # Data actually reached the disks.
    assert res.cluster.total_bytes_served() >= 8 * 1024 * 1024


def test_dualpar_batches_requests_deeply():
    """The defining mechanism: DualPar's servers see far deeper queues."""
    def w():
        return MpiIoTest(file_size=8 * 1024 * 1024)
    r_v = run_experiment([JobSpec("v", 8, w(), strategy="vanilla")],
                         cluster_spec=small_spec())
    r_d = run_experiment([JobSpec("d", 8, w(), strategy="dualpar-forced")],
                         cluster_spec=small_spec())
    assert r_d.cluster.mean_queue_depth() > 2 * r_v.cluster.mean_queue_depth()


def test_normal_mode_delegates_to_vanilla():
    res = run_experiment(
        [JobSpec("n", 4, SyntheticPattern(file_size=1024 * 1024), strategy="dualpar")],
        cluster_spec=small_spec(),
        dualpar_config=DualParConfig(force_mode="normal"),
    )
    eng = res.mpi_jobs[0].engine
    assert eng.pec.n_cycles == 0
    assert res.jobs[0].bytes_read == 1024 * 1024


# ----------------------------------------------------------- mis-prefetch


def test_dependent_workload_triggers_lockout():
    """Table III: with fully data-dependent addresses every prefetch is
    wrong; EMC detects the mis-prefetch ratio and disables the mode."""
    res = run_experiment(
        [JobSpec("dep", 4, DependentReads(file_size=4 * 1024 * 1024),
                 strategy="dualpar")],
        cluster_spec=small_spec(),
        dualpar_config=DualParConfig(
            # Pin entry so the test exercises the exit path deterministically.
            io_ratio_enter=0.0, io_ratio_exit=0.0, t_improvement=1e-9, emc_interval_s=0.05,
        ),
    )
    eng = res.mpi_jobs[0].engine
    # Either it never entered (no improvement signal) or it entered, saw
    # garbage, and locked out.  With the aggressive thresholds above it
    # must have entered at least once.
    assert res.jobs[0].bytes_read == 2 * 1024 * 1024  # first half actually read
    if eng.pec.n_cycles >= 2:
        assert eng.locked_out
        assert any(r >= 0.9 for _, r in eng.pec.misprefetch_history)


def test_dependent_workload_overhead_is_bounded():
    """Table III's headline: worst-case slowdown stays small."""
    def w():
        return DependentReads(file_size=4 * 1024 * 1024)
    r_v = run_experiment([JobSpec("v", 4, w(), strategy="vanilla")],
                         cluster_spec=small_spec())
    r_d = run_experiment(
        [JobSpec("d", 4, w(), strategy="dualpar")],
        cluster_spec=small_spec(),
        dualpar_config=DualParConfig(io_ratio_enter=0.0, io_ratio_exit=0.0, t_improvement=1e-9,
                                     emc_interval_s=0.05),
    )
    assert r_d.jobs[0].elapsed_s < r_v.jobs[0].elapsed_s * 1.6


def test_misprefetched_chunks_never_used():
    res = run_experiment(
        [JobSpec("dep", 4, DependentReads(file_size=4 * 1024 * 1024),
                 strategy="dualpar-forced")],
        cluster_spec=small_spec(),
    )
    eng = res.mpi_jobs[0].engine
    if eng.pec.misprefetch_history:
        assert all(r >= 0.9 for _, r in eng.pec.misprefetch_history)
    # Every read fell back to a direct request after its failed cycle.
    assert eng.n_direct_fallback_bytes > 0


# ----------------------------------------------------------------- EMC


def test_emc_enables_mode_for_io_bound_program():
    """An I/O-bound random-access program should be flipped to data-driven
    by EMC once seek distances exceed the sortable request distance."""
    res = run_experiment(
        [JobSpec("adaptive", 8,
                 Hpio(region_count=2048, region_bytes=16 * 1024, region_spacing=0),
                 strategy="dualpar")],
        cluster_spec=small_spec(placement="spread"),
        dualpar_config=DualParConfig(emc_interval_s=0.2, t_improvement=1.5),
    )
    system = res.dualpar
    assert system is not None
    assert len(system.emc.samples) > 0
    # EMC produced I/O-ratio samples for the job.
    assert any(r for s in system.emc.samples for r in s.io_ratios.values())


def test_emc_respects_force_mode():
    res = run_experiment(
        [JobSpec("forced", 4, SyntheticPattern(file_size=2 * 1024 * 1024),
                 strategy="dualpar-forced")],
        cluster_spec=small_spec(),
        dualpar_config=DualParConfig(emc_interval_s=0.05),
    )
    # No transitions logged: the mode was pinned.
    assert all(mode != "normal" for _, _, mode in res.dualpar.transitions)


def test_emc_mode_transition_logged_on_misprefetch_exit():
    res = run_experiment(
        [JobSpec("dep", 4, DependentReads(file_size=4 * 1024 * 1024),
                 strategy="dualpar")],
        cluster_spec=small_spec(),
        dualpar_config=DualParConfig(io_ratio_enter=0.0, io_ratio_exit=0.0, t_improvement=1e-9,
                                     emc_interval_s=0.05),
    )
    trans = res.dualpar.transitions
    if any(m == "datadriven" for _, _, m in trans):
        assert any(m == "normal" for _, _, m in trans)


# ------------------------------------------------------------- quota/cache


def test_larger_quota_fewer_cycles():
    def run_quota(q):
        res = run_experiment(
            [JobSpec("q", 8, MpiIoTest(file_size=8 * 1024 * 1024),
                     strategy="dualpar-forced")],
            cluster_spec=small_spec(),
            dualpar_config=DualParConfig(quota_bytes=q),
        )
        return res.mpi_jobs[0].engine.pec.n_cycles

    assert run_quota(128 * 1024) > run_quota(1024 * 1024)


def test_zero_quota_degenerates_gracefully():
    """Fig 8's 0 KB point: no cache space means effectively vanilla."""
    res = run_experiment(
        [JobSpec("z", 4, MpiIoTest(file_size=2 * 1024 * 1024),
                 strategy="dualpar-forced")],
        cluster_spec=small_spec(),
        dualpar_config=DualParConfig(quota_bytes=0),
    )
    assert res.jobs[0].bytes_read == 2 * 1024 * 1024
