"""Unit tests for DualPar internals: PEC ghosts/deadlines, CRM batching,
EMC metric computation."""

from types import SimpleNamespace

import pytest

from repro.cluster import ClusterSpec, build_cluster
from repro.core import DualParConfig, DualParSystem, pec
from repro.core.metrics import JobIoSampler, RequestRecorder
from repro.disk.drive import DiskParams
from repro.mpi.ops import ComputeOp, IoOp, Segment
from repro.mpi.runtime import MpiRuntime
from repro.runner import JobSpec, run_experiment
from repro.workloads import SyntheticPattern
from repro.workloads.base import FileSpec, Workload


def small_spec(**kw):
    defaults = dict(
        n_compute_nodes=4,
        n_data_servers=3,
        disk=DiskParams(capacity_bytes=2 * 10**9),
    )
    defaults.update(kw)
    return ClusterSpec(**defaults)


# --------------------------------------------------------- RequestRecorder


def test_request_recorder_sorted_gaps():
    rec = RequestRecorder(node_id=0, window_s=10.0)
    # Requests arrive out of order; ReqDist sorts by offset.
    rec.record(1.0, "f", 128 * 1024, 64 * 1024)
    rec.record(1.1, "f", 0, 64 * 1024)
    # Sorted: [0,64K) then [128K,192K): one gap of 64 KB = 128 sectors.
    assert rec.recent_req_dist(now=2.0) == pytest.approx(128.0)


def test_request_recorder_contiguous_is_zero():
    rec = RequestRecorder(node_id=0, window_s=10.0)
    rec.record(1.0, "f", 0, 64 * 1024)
    rec.record(1.0, "f", 64 * 1024, 64 * 1024)
    assert rec.recent_req_dist(now=2.0) == 0.0


def test_request_recorder_window_expiry():
    rec = RequestRecorder(node_id=0, window_s=1.0)
    rec.record(0.0, "f", 0, 64 * 1024)
    rec.record(0.1, "f", 10 * 1024 * 1024, 64 * 1024)
    assert rec.recent_req_dist(now=5.0) is None  # too old


def test_request_recorder_per_file_separation():
    rec = RequestRecorder(node_id=0, window_s=10.0)
    # One request per file: no adjacent pairs anywhere.
    rec.record(1.0, "a", 0, 1024)
    rec.record(1.0, "b", 10 * 1024 * 1024, 1024)
    assert rec.recent_req_dist(now=2.0) is None


def test_request_recorder_overlap_clamped():
    rec = RequestRecorder(node_id=0, window_s=10.0)
    rec.record(1.0, "f", 0, 64 * 1024)
    rec.record(1.0, "f", 32 * 1024, 64 * 1024)  # overlapping
    assert rec.recent_req_dist(now=2.0) == 0.0


# ------------------------------------------------------------ JobIoSampler


def test_job_io_sampler_differences():
    cluster = build_cluster(small_spec())
    rt = MpiRuntime(cluster)
    from repro.mpi.runtime import MpiJob
    from repro.mpiio.engine import IndependentEngine

    job = MpiJob(rt, "s", 2, SyntheticPattern(), lambda r, j: IndependentEngine(r, j))
    sampler = JobIoSampler(job)
    job.procs = [type("P", (), {"metrics": m})() for m in _metrics(2)]
    assert sampler.sample() is None  # no activity yet
    job.procs[0].metrics.io_time_s = 3.0
    job.procs[0].metrics.compute_time_s = 1.0
    assert sampler.sample() == pytest.approx(0.75)
    # No further activity -> None again.
    assert sampler.sample() is None


def _metrics(n):
    from repro.mpi.runtime import ProcMetrics

    return [ProcMetrics() for _ in range(n)]


# ----------------------------------------------------------------- ghosts


class ComputeThenReads(Workload):
    """Long compute first, then reads -- exercises the ghost deadline."""

    name = "compute-then-reads"

    def __init__(self, compute_s=5.0, n_reads=8):
        self.compute_s = compute_s
        self.n_reads = n_reads

    def ops(self, rank, size):
        yield IoOp(file_name="g.dat", op="R",
                   segments=(Segment(rank * 64 * 1024, 64 * 1024),))
        yield ComputeOp(self.compute_s)
        for i in range(self.n_reads):
            yield IoOp(
                file_name="g.dat",
                op="R",
                segments=(Segment((size + rank * self.n_reads + i) * 64 * 1024,
                                  64 * 1024),),
            )

    def files(self):
        return [FileSpec("g.dat", 64 * 1024 * 1024)]


def test_ghost_deadline_interrupts_slow_preexecution(monkeypatch):
    """Ghosts re-executing a long computation are stopped at the expected
    cache-fill deadline instead of stalling the cycle."""
    monkeypatch.setattr(pec, "DEADLINE_MAX_S", 0.2)
    res = run_experiment(
        [JobSpec("g", 4, ComputeThenReads(compute_s=5.0), strategy="dualpar-forced")],
        cluster_spec=small_spec(),
    )
    eng = res.mpi_jobs[0].engine
    assert eng.pec.n_deadline_stops > 0
    # The job still completes correctly.
    assert res.jobs[0].bytes_read == 4 * (1 + 8) * 64 * 1024


@pytest.mark.parametrize(
    "quota_bytes, expected_s",
    [
        # 64 MB at the 1 MB/s rate floor: 134 s expected, capped.
        (64 * 1024 * 1024, pec.DEADLINE_MAX_S),
        # 1 KB: 2 ms expected, raised to the floor.
        (1024, pec.DEADLINE_MIN_S),
        # 1 MB: 2.1 s, inside the clamp.
        (1024 * 1024, pec.DEADLINE_FACTOR * 1024 * 1024 / 1e6),
    ],
)
def test_fill_deadline_is_clamped(quota_bytes, expected_s):
    """The ghost deadline is the expected quota fill time, within
    [DEADLINE_MIN_S, DEADLINE_MAX_S]; ranks that did no I/O yet count at
    the 1 MB/s rate floor."""
    stub = SimpleNamespace(
        config=DualParConfig(quota_bytes=quota_bytes),
        job=SimpleNamespace(procs=[], nprocs=4),
    )
    assert pec.Pec._fill_deadline_s(stub) == expected_s


def test_ghost_budget_limits_recording():
    """With a small quota the ghost records ~quota bytes, not the world."""
    res = run_experiment(
        [JobSpec("q", 4, SyntheticPattern(file_size=8 * 1024 * 1024,
                                          request_bytes=64 * 1024),
                 strategy="dualpar-forced")],
        cluster_spec=small_spec(),
        dualpar_config=DualParConfig(quota_bytes=256 * 1024),
    )
    eng = res.mpi_jobs[0].engine
    # Multiple cycles were needed: the budget capped each one.
    assert eng.pec.n_cycles >= 4
    assert res.jobs[0].bytes_read == 8 * 1024 * 1024


def test_crm_prefetch_deduplicates_shared_chunks():
    """All ranks reading the same region -> each chunk fetched once."""

    class SharedRead(Workload):
        name = "shared"

        def ops(self, rank, size):
            for i in range(16):
                yield IoOp(file_name="s.dat", op="R",
                           segments=(Segment(i * 64 * 1024, 64 * 1024),))

        def files(self):
            return [FileSpec("s.dat", 2 * 1024 * 1024)]

    res = run_experiment(
        [JobSpec("s", 4, SharedRead(), strategy="dualpar-forced")],
        cluster_spec=small_spec(),
    )
    eng = res.mpi_jobs[0].engine
    # 16 chunks needed in total; CRM must not fetch 4x.
    assert eng.crm.prefetched_bytes <= 2 * 1024 * 1024


def test_emc_improvement_floor():
    """ReqDist is floored at one stripe unit so improvement stays finite."""
    cluster = build_cluster(small_spec())
    rt = MpiRuntime(cluster)
    system = DualParSystem(rt)
    # Seed recorders with perfectly contiguous requests (ReqDist ~ 0).
    system.recorders[0].record(rt.sim.now, "f", 0, 64 * 1024)
    system.recorders[0].record(rt.sim.now, "f", 64 * 1024, 64 * 1024)
    # Seed a locality daemon with fake samples.
    cluster.locality_daemons[0].samples.append((0.0, 12800.0, 10))
    imp = system.emc.improvement()
    assert imp is not None
    assert imp == pytest.approx(12800.0 / (64 * 1024 / 512))


def test_emc_improvement_none_without_data():
    cluster = build_cluster(small_spec())
    rt = MpiRuntime(cluster)
    system = DualParSystem(rt)
    assert system.emc.improvement() is None
    assert system.emc.ave_seek_dist() is None
    assert system.emc.ave_req_dist() is None


def test_engine_set_mode_validates():
    res = run_experiment(
        [JobSpec("m", 2, SyntheticPattern(file_size=256 * 1024), strategy="dualpar")],
        cluster_spec=small_spec(),
        dualpar_config=DualParConfig(force_mode="normal"),
    )
    eng = res.mpi_jobs[0].engine
    with pytest.raises(ValueError):
        eng.set_mode("diagonal")


def test_crm_stream_ids_stable_per_node():
    res = run_experiment(
        [JobSpec("c", 4, SyntheticPattern(file_size=1024 * 1024),
                 strategy="dualpar-forced")],
        cluster_spec=small_spec(),
    )
    eng = res.mpi_jobs[0].engine
    sid = eng.crm_stream_id(0)
    assert eng.crm_stream_id(0) == sid
    assert eng.crm_stream_id(1) != sid
