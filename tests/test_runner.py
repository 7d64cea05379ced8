"""Tests for the experiment harness, strategies, and calibration."""

import pytest

from repro.cluster import ClusterSpec
from repro.disk.drive import DiskParams
from repro.runner import (
    JobSpec,
    calibrate_compute_for_ratio,
    format_table,
    resolve_strategy,
    run_experiment,
)
from repro.runner.strategies import STRATEGIES
from repro.workloads import Demo, SyntheticPattern


def small_spec(**kw):
    defaults = dict(
        n_compute_nodes=2,
        n_data_servers=3,
        disk=DiskParams(capacity_bytes=2 * 10**9),
    )
    defaults.update(kw)
    return ClusterSpec(**defaults)


# -------------------------------------------------------------- strategies


def test_all_strategies_resolvable():
    from repro.cluster import build_cluster
    from repro.core import DualParSystem
    from repro.mpi import MpiRuntime

    runtime = MpiRuntime(build_cluster(small_spec()))
    system = DualParSystem(runtime)
    for name in STRATEGIES:
        factory = resolve_strategy(name, system)
        assert callable(factory)


def test_unknown_strategy_rejected():
    with pytest.raises(ValueError, match="unknown strategy"):
        resolve_strategy("mystery")


def test_dualpar_strategy_needs_system():
    with pytest.raises(ValueError, match="needs a DualParSystem"):
        resolve_strategy("dualpar", None)


# -------------------------------------------------------------- experiment


def test_run_experiment_basic_measurements():
    res = run_experiment(
        [JobSpec("a", 4, SyntheticPattern(file_size=2 * 1024 * 1024))],
        cluster_spec=small_spec(),
    )
    j = res.jobs[0]
    assert j.bytes_read == 2 * 1024 * 1024
    assert j.elapsed_s > 0
    assert j.throughput_mb_s > 0
    assert 0 <= j.io_ratio <= 1
    assert res.makespan_s >= j.elapsed_s - 1e-9
    assert res.system_throughput_mb_s > 0


def test_run_experiment_concurrent_jobs():
    res = run_experiment(
        [
            JobSpec("a", 2, SyntheticPattern(file_name="fa.dat", file_size=1024 * 1024)),
            JobSpec("b", 2, SyntheticPattern(file_name="fb.dat", file_size=1024 * 1024)),
        ],
        cluster_spec=small_spec(),
    )
    assert len(res.jobs) == 2
    assert res.job("a").bytes_read == 1024 * 1024
    assert res.job("b").bytes_read == 1024 * 1024
    with pytest.raises(KeyError):
        res.job("c")


def test_job_lookup_refuses_an_ambiguous_name():
    # Two jobs sharing a name are refused before anything runs: the
    # result lookup, the governor and the per-job series key on it.
    with pytest.raises(ValueError, match="job names must be unique"):
        run_experiment(
            [
                JobSpec("a", 2, SyntheticPattern(file_name="fa.dat", file_size=1024 * 1024),
                        strategy="dualpar-forced"),
                JobSpec("a", 2, SyntheticPattern(file_name="fb.dat", file_size=1024 * 1024),
                        strategy="vanilla"),
            ],
            cluster_spec=small_spec(),
        )


def test_run_experiment_delayed_start():
    res = run_experiment(
        [
            JobSpec("early", 2, SyntheticPattern(file_name="fa.dat", file_size=1024 * 1024)),
            JobSpec("late", 2, SyntheticPattern(file_name="fb.dat", file_size=1024 * 1024),
                    delay_s=0.5),
        ],
        cluster_spec=small_spec(),
    )
    assert res.job("late").start_s == pytest.approx(0.5)
    assert res.job("early").start_s == 0.0


def test_run_experiment_shared_file_dedup():
    w1 = SyntheticPattern(file_name="shared.dat", file_size=1024 * 1024)
    w2 = SyntheticPattern(file_name="shared.dat", file_size=1024 * 1024)
    res = run_experiment(
        [JobSpec("a", 2, w1), JobSpec("b", 2, w2)], cluster_spec=small_spec()
    )
    assert len(res.jobs) == 2


def test_run_experiment_conflicting_file_sizes_rejected():
    w1 = SyntheticPattern(file_name="x.dat", file_size=1024 * 1024)
    w2 = SyntheticPattern(file_name="x.dat", file_size=2 * 1024 * 1024)
    with pytest.raises(ValueError, match="sizes"):
        run_experiment([JobSpec("a", 2, w1), JobSpec("b", 2, w2)],
                       cluster_spec=small_spec())


def test_run_experiment_empty_rejected():
    with pytest.raises(ValueError):
        run_experiment([])


def test_run_experiment_timeline():
    res = run_experiment(
        [JobSpec("a", 4, SyntheticPattern(file_size=4 * 1024 * 1024))],
        cluster_spec=small_spec(),
        timeline_window_s=0.05,
    )
    assert res.timeline is not None
    series = res.timeline.series(window_s=0.05)
    assert sum(mb for _, mb in series) > 0


def test_job_result_io_ratio_definition():
    res = run_experiment(
        [JobSpec("a", 2, SyntheticPattern(file_size=1024 * 1024,
                                          compute_per_call=0.01))],
        cluster_spec=small_spec(),
    )
    j = res.jobs[0]
    assert j.compute_time_s > 0
    assert j.io_ratio == pytest.approx(
        j.io_time_s / (j.io_time_s + j.compute_time_s)
    )


# -------------------------------------------------------------- calibration


def test_calibrate_compute_for_ratio():
    def builder(cpc):
        return Demo(
            file_size=4 * 1024 * 1024, segment_bytes=16 * 1024, compute_per_call=cpc
        )
    cpc = calibrate_compute_for_ratio(builder, 0.5, nprocs=4,
                                      cluster_spec=small_spec())
    assert cpc > 0
    # Verify the achieved ratio is in the neighbourhood of the target.
    res = run_experiment([JobSpec("v", 4, builder(cpc), strategy="vanilla")],
                         cluster_spec=small_spec())
    assert 0.3 < res.jobs[0].io_ratio < 0.7


def test_calibrate_ratio_one_means_zero_compute():
    def builder(cpc):
        return Demo(file_size=2 * 1024 * 1024, compute_per_call=cpc)
    assert calibrate_compute_for_ratio(builder, 1.0, nprocs=4,
                                       cluster_spec=small_spec()) == 0.0


def test_calibrate_rejects_bad_ratio():
    with pytest.raises(ValueError):
        calibrate_compute_for_ratio(lambda c: Demo(), 0.0, 4)


# ------------------------------------------------------------------ tables


def test_format_table_alignment():
    out = format_table(
        ["scheme", "MB/s"],
        [["vanilla", 115.0], ["dualpar", 263.2]],
        title="Fig 3",
    )
    lines = out.splitlines()
    assert lines[0] == "Fig 3"
    assert "scheme" in lines[1] and "MB/s" in lines[1]
    assert "115.0" in out and "263.2" in out


def test_format_table_empty_rows():
    out = format_table(["a"], [])
    assert "a" in out
