"""The MPI job runtime: ranks as simulation processes.

Each rank interprets its op stream:

- ``ComputeOp`` -- advance the clock; accrue compute time.
- ``BarrierOp`` -- synchronise on the job barrier, then charge the
  dissemination cost ``2*ceil(log2 P))*latency`` (paper: "each barrier
  operation takes a relatively long time with a large number of
  processes").  Barrier time counts as computation, matching the paper's
  instrumentation ("time between any two consecutive I/O-related function
  calls" is computation).
- ``IoOp`` -- delegate to the job's I/O engine; accrue I/O time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional

from repro.cluster.builder import Cluster
from repro.mpi.ops import BarrierOp, ComputeOp, IoOp
from repro.mpi.opstream import OpStream
from repro.sim import Event, Process, SimBarrier, Simulator, all_of

if TYPE_CHECKING:  # pragma: no cover
    from repro.mpiio.engine import IoEngine
    from repro.workloads.base import Workload

__all__ = ["MpiJob", "MpiProcess", "MpiRuntime", "ProcMetrics"]


@dataclass
class ProcMetrics:
    """Cumulative per-rank instrumentation (the paper's ADIO counters)."""

    io_time_s: float = 0.0
    compute_time_s: float = 0.0
    bytes_read: int = 0
    bytes_written: int = 0
    n_io_calls: int = 0

    @property
    def io_ratio(self) -> float:
        total = self.io_time_s + self.compute_time_s
        return self.io_time_s / total if total > 0 else 0.0


class MpiProcess:
    """One MPI rank."""

    def __init__(self, job: "MpiJob", rank: int, node_id: int, stream_id: int):
        self.job = job
        self.rank = rank
        self.node_id = node_id
        self.stream_id = stream_id
        self.stream: Optional[OpStream] = None
        self.metrics = ProcMetrics()
        self.proc: Optional[Process] = None
        #: Ops (absolute stream positions) already attempted through a
        #: prefetch cycle -- prevents a fully-mis-predicted op from
        #: re-triggering cycles forever.
        self.cycle_attempted_at: int = -1

    @property
    def sim(self) -> Simulator:
        return self.job.runtime.sim

    def __repr__(self) -> str:  # pragma: no cover
        return f"<MpiProcess {self.job.name}:{self.rank}>"


class MpiJob:
    """One parallel program instance."""

    _next_id = 0

    def __init__(
        self,
        runtime: "MpiRuntime",
        name: str,
        nprocs: int,
        workload: "Workload",
        engine_factory: Callable[["MpiRuntime", "MpiJob"], "IoEngine"],
    ):
        if nprocs < 1:
            raise ValueError("job needs at least one process")
        self.runtime = runtime
        self.name = name
        self.nprocs = nprocs
        self.workload = workload
        self.job_id = MpiJob._next_id
        MpiJob._next_id += 1
        self.barrier = SimBarrier(runtime.sim, nprocs)
        self.procs: list[MpiProcess] = []
        self.start_time: Optional[float] = None
        self.end_time: Optional[float] = None
        self.done: Event = runtime.sim.event()
        #: 'normal' (computation-driven) or 'datadriven'; EMC flips this.
        self.mode = "normal"
        self.engine: "IoEngine" = engine_factory(runtime, self)

    # ------------------------------------------------------------------

    @property
    def sim(self) -> Simulator:
        return self.runtime.sim

    @property
    def elapsed_s(self) -> float:
        if self.start_time is None:
            return 0.0
        end = self.end_time if self.end_time is not None else self.sim.now
        return end - self.start_time

    @property
    def finished(self) -> bool:
        return self.end_time is not None

    def total_io_bytes(self) -> int:
        return sum(p.metrics.bytes_read + p.metrics.bytes_written for p in self.procs)

    def throughput_mb_s(self) -> float:
        el = self.elapsed_s
        return self.total_io_bytes() / 1e6 / el if el > 0 else 0.0

    # ------------------------------------------------------------------

    #: Per-hop software cost of an MPI message over TCP/GigE (stack
    #: traversal, progress-engine wakeups) -- dominates the wire latency
    #: and is what makes a 64-rank barrier cost milliseconds, as the
    #: paper observes for mpi-io-test.
    MPI_HOP_OVERHEAD_S = 60e-6

    def _barrier_cost_s(self) -> float:
        lat = self.runtime.cluster.spec.network.latency_s
        per_hop = lat + self.MPI_HOP_OVERHEAD_S
        return 2 * math.ceil(math.log2(max(self.nprocs, 2))) * per_hop

    def _rank_body(self, proc: MpiProcess):
        sim = self.sim
        stream = proc.stream
        engine = self.engine
        tracer = sim.obs.tracer if sim.obs is not None else None
        while True:
            op = stream.next_for_run()
            if op is None:
                break
            if isinstance(op, ComputeOp):
                if op.seconds > 0:
                    yield sim.timeout(op.seconds)
                proc.metrics.compute_time_s += op.seconds
            elif isinstance(op, BarrierOp):
                t0 = sim.now
                yield self.barrier.arrive()
                cost = self._barrier_cost_s()
                yield sim.timeout(cost)
                proc.metrics.compute_time_s += sim.now - t0
            elif isinstance(op, IoOp):
                t0 = sim.now
                if tracer is not None:
                    # Root span of the trace: everything this operation
                    # causes downstream (pfs, iosched, disk) carries the
                    # trace id minted here.
                    trace_id = tracer.new_trace()
                    tracer.bind_stream(proc.stream_id, trace_id)
                    with tracer.span(
                        "mpi.io",
                        track=f"{self.name}:rank{proc.rank}",
                        cat="mpi",
                        trace=trace_id,
                        op=op.op,
                        file=op.file_name,
                        bytes=op.total_bytes,
                    ):
                        yield from engine.do_io(proc, op)
                else:
                    yield from engine.do_io(proc, op)
                dt = sim.now - t0
                proc.metrics.io_time_s += dt
                proc.metrics.n_io_calls += 1
                if op.op == "R":
                    proc.metrics.bytes_read += op.total_bytes
                else:
                    proc.metrics.bytes_written += op.total_bytes
            else:  # pragma: no cover - defensive
                raise TypeError(f"unknown op {op!r}")
        yield from engine.finalize_rank(proc)

    def start(self) -> None:
        if self.procs:
            raise RuntimeError("job already started")
        self.start_time = self.sim.now
        spec = self.runtime.cluster.spec
        for rank in range(self.nprocs):
            node = spec.compute_node_id(rank % spec.n_compute_nodes)
            proc = MpiProcess(self, rank, node, self.runtime._next_stream_id())
            proc.stream = OpStream(self.workload.ops(rank, self.nprocs))
            self.procs.append(proc)
        self.engine.on_job_start()
        bodies = [
            self.sim.process(self._rank_body(p), name=f"{self.name}:{p.rank}")
            for p in self.procs
        ]

        def waiter():
            yield all_of(self.sim, bodies)
            self.end_time = self.sim.now
            self.engine.on_job_end()
            self.done.succeed(self.sim.now)

        self.sim.process(waiter(), name=f"{self.name}:join")


class MpiRuntime:
    """Launches jobs against one cluster; owns the shared stream-id space
    and the cluster-wide global cache (the Memcached infrastructure)."""

    def __init__(self, cluster: Cluster):
        from repro.cache.memcache import GlobalCache

        self.cluster = cluster
        self.sim = cluster.sim
        self.jobs: list[MpiJob] = []
        self._stream_counter = 0
        compute_nodes = [
            cluster.spec.compute_node_id(i)
            for i in range(cluster.spec.n_compute_nodes)
        ]
        self.global_cache = GlobalCache(
            cluster.sim,
            cluster.network,
            compute_nodes,
            chunk_bytes=cluster.spec.stripe_unit,
        )

    def _next_stream_id(self) -> int:
        self._stream_counter += 1
        return self._stream_counter

    def launch(
        self,
        name: str,
        nprocs: int,
        workload: "Workload",
        engine_factory: Callable[["MpiRuntime", "MpiJob"], "IoEngine"],
        start: bool = True,
    ) -> MpiJob:
        job = MpiJob(self, name, nprocs, workload, engine_factory)
        self.jobs.append(job)
        if start:
            job.start()
        return job

    def run_to_completion(self, limit_s: float = 1e6) -> float:
        """Run until every launched job finishes; returns final sim time."""
        for job in self.jobs:
            self.sim.run_until_event(job.done, limit=limit_s)
        return self.sim.now
