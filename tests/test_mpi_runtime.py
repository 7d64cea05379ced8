"""Tests for the MPI runtime: jobs, ranks, barriers, metrics."""

import math

import pytest

from repro.cluster import ClusterSpec, build_cluster
from repro.disk.drive import DiskParams
from repro.mpi.ops import BarrierOp, ComputeOp, IoOp, Segment
from repro.mpi.runtime import MpiJob, MpiRuntime
from repro.mpiio.engine import IndependentEngine
from repro.workloads import SyntheticPattern
from repro.workloads.base import FileSpec, Workload


def small_runtime(n_nodes=2, n_servers=3):
    cluster = build_cluster(
        ClusterSpec(
            n_compute_nodes=n_nodes,
            n_data_servers=n_servers,
            disk=DiskParams(capacity_bytes=2 * 10**9),
        )
    )
    return MpiRuntime(cluster)


class ScriptedWorkload(Workload):
    """Same scripted op list for every rank."""

    name = "scripted"

    def __init__(self, ops_list, file_size=1024 * 1024):
        self._ops = ops_list
        self._file_size = file_size

    def ops(self, rank, size):
        return iter(list(self._ops))

    def files(self):
        return [FileSpec("scripted.dat", self._file_size)]


def vanilla(rt, job):
    return IndependentEngine(rt, job)


def launch(runtime, workload, nprocs=2, name="job"):
    for f in workload.files():
        if not runtime.cluster.fs.exists(f.name):
            runtime.cluster.fs.create(f.name, f.size)
    return runtime.launch(name, nprocs, workload, vanilla)


def test_job_runs_to_completion():
    rt = small_runtime()
    job = launch(rt, SyntheticPattern(file_size=512 * 1024))
    rt.run_to_completion()
    assert job.finished
    assert job.elapsed_s > 0
    assert job.total_io_bytes() == 512 * 1024


def test_job_throughput_and_io_ratio():
    rt = small_runtime()
    job = launch(rt, SyntheticPattern(file_size=512 * 1024, compute_per_call=0.001))
    rt.run_to_completion()
    assert job.throughput_mb_s() > 0
    assert all(0 < p.metrics.io_ratio < 1 for p in job.procs)


def test_compute_op_advances_clock_exactly():
    rt = small_runtime()
    job = launch(rt, ScriptedWorkload([ComputeOp(0.25), ComputeOp(0.25)]), nprocs=1)
    rt.run_to_completion()
    assert job.elapsed_s == pytest.approx(0.5)
    assert job.procs[0].metrics.compute_time_s == pytest.approx(0.5)


def test_barrier_synchronises_and_costs():
    rt = small_runtime()

    class Staggered(Workload):
        name = "staggered"

        def ops(self, rank, size):
            yield ComputeOp(0.1 * (rank + 1))
            yield BarrierOp()

        def files(self):
            return []

    job = launch(rt, Staggered(), nprocs=2)
    rt.run_to_completion()
    # Both ranks leave the barrier after the slowest arrival + wire cost.
    expected_cost = 2 * math.ceil(math.log2(2)) * (
        rt.cluster.spec.network.latency_s + MpiJob.MPI_HOP_OVERHEAD_S
    )
    assert job.elapsed_s == pytest.approx(0.2 + expected_cost)
    # Rank 0 waited for rank 1: its compute time includes the barrier wait.
    assert job.procs[0].metrics.compute_time_s == pytest.approx(
        0.1 + 0.1 + expected_cost
    )


def test_barrier_cost_grows_with_ranks():
    rt = small_runtime()
    j2 = MpiJob(rt, "a", 2, SyntheticPattern(), vanilla)
    j64 = MpiJob(rt, "b", 64, SyntheticPattern(), vanilla)
    assert j64._barrier_cost_s() > j2._barrier_cost_s()


def test_io_metrics_accumulate():
    rt = small_runtime()
    rt.cluster.fs.create("m.dat", 1024 * 1024)
    ops = [
        IoOp(file_name="m.dat", op="R", segments=(Segment(0, 64 * 1024),)),
        IoOp(file_name="m.dat", op="W", segments=(Segment(0, 32 * 1024),)),
    ]
    job = launch(rt, ScriptedWorkload(ops), nprocs=1)
    rt.run_to_completion()
    m = job.procs[0].metrics
    assert m.bytes_read == 64 * 1024
    assert m.bytes_written == 32 * 1024
    assert m.n_io_calls == 2
    assert m.io_time_s > 0


def test_ranks_placed_round_robin():
    rt = small_runtime(n_nodes=2)
    job = launch(rt, SyntheticPattern(file_size=256 * 1024), nprocs=4)
    rt.run_to_completion()
    assert [p.node_id for p in job.procs] == [0, 1, 0, 1]


def test_stream_ids_unique_across_jobs():
    rt = small_runtime()
    j1 = launch(rt, SyntheticPattern(file_name="a.dat", file_size=256 * 1024), name="a")
    j2 = launch(rt, SyntheticPattern(file_name="b.dat", file_size=256 * 1024), name="b")
    rt.run_to_completion()
    ids = [p.stream_id for p in j1.procs + j2.procs]
    assert len(set(ids)) == len(ids)


def test_job_rejects_zero_procs():
    rt = small_runtime()
    with pytest.raises(ValueError):
        MpiJob(rt, "bad", 0, SyntheticPattern(), vanilla)


def test_job_double_start_rejected():
    rt = small_runtime()
    job = launch(rt, SyntheticPattern(file_size=256 * 1024))
    with pytest.raises(RuntimeError):
        job.start()


def test_deferred_start():
    rt = small_runtime()
    w = SyntheticPattern(file_size=256 * 1024)
    rt.cluster.fs.create(w.file_name, w.file_size) if not rt.cluster.fs.exists(
        w.file_name
    ) else None
    job = rt.launch("late", 2, w, vanilla, start=False)
    assert job.start_time is None
    rt.sim.run(until=1.0)
    job.start()
    rt.run_to_completion()
    assert job.start_time == pytest.approx(1.0)


def test_empty_stream_rank_finishes_immediately():
    rt = small_runtime()
    job = launch(rt, ScriptedWorkload([]), nprocs=2)
    rt.run_to_completion()
    assert job.finished
    assert job.elapsed_s == 0.0
