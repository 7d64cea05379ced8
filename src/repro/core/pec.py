"""Process Execution Control: blocking, ghosts, and prefetch cycles.

The data-driven cycle (paper SIV-C):

1.  A rank's synchronous read misses the global cache.  The MPI-IO
    library "holds the function call without a return and forks a ghost
    process to keep running on behalf of the normal process".  In this
    simulation the first miss opens a *cycle* and forks a ghost for every
    rank of the job at its current stream position -- ranks still
    computing join by blocking at their own next miss (or quota-full
    write).
2.  Each ghost replays its rank's op stream ahead: computation is
    re-executed (``ghost_compute_factor``), read requests are recorded but
    NOT issued, and the ghost pauses once the requests it recorded would
    fill the rank's reserved cache quota.
3.  Ghosts that outlive the expected cache-fill deadline are interrupted
    ("when the time period expires, all unfinished pre-executions are
    stopped").
4.  When every ghost has paused, CRM writes dirty data back, issues the
    sorted/merged/batched prefetch, and all blocked ranks resume.

Mis-prefetch bookkeeping: at the start of each cycle the fraction of the
*previous* cycle's prefetched chunks that went unused is reported to EMC
and the stale chunks are evicted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.mpi.ops import BarrierOp, ComputeOp, IoOp, Segment
from repro.sim import Event, Interrupt, Process, all_of, any_of

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.engine import DualParEngine
    from repro.mpi.runtime import MpiProcess

__all__ = ["Cycle", "Pec"]

#: Ghost pre-executions are stopped this factor past the expected
#: cache-fill time, clamped to [DEADLINE_MIN_S, DEADLINE_MAX_S].
DEADLINE_FACTOR = 2.0
DEADLINE_MIN_S = 0.05
DEADLINE_MAX_S = 10.0


@dataclass
class Cycle:
    cycle_id: int
    resume_event: Event
    #: rank -> file -> recorded read segments
    recorded: dict[int, dict[str, list[Segment]]] = field(default_factory=dict)
    ghosts: list[Process] = field(default_factory=list)
    blocked_ranks: set[int] = field(default_factory=set)
    started_at: float = 0.0
    deadline_s: float = 0.0
    issuing: bool = False

    def record(self, rank: int, file_name: str, segments) -> None:
        per_file = self.recorded.setdefault(rank, {})
        per_file.setdefault(file_name, []).extend(segments)


class Pec:
    """One per DualPar job."""

    def __init__(self, engine: "DualParEngine"):
        self.engine = engine
        self.job = engine.job
        self.sim = engine.sim
        self.config = engine.config
        self._cycle: Optional[Cycle] = None
        self._cycle_counter = 0
        self.n_cycles = 0
        self.n_deadline_stops = 0
        self.n_fault_stops = 0
        #: (cycle_id, misprefetch_ratio) history
        self.misprefetch_history: list[tuple[int, float]] = []
        if self.sim.obs is not None:
            self._ts_misprefetch = self.sim.obs.registry.timeseries(
                f"pec.{self.job.name}.misprefetch_ratio"
            )
            self._tracer = self.sim.obs.tracer
        else:
            self._ts_misprefetch = None
            self._tracer = None

    # ------------------------------------------------------------------

    @property
    def current_cycle_id(self) -> int:
        return self._cycle_counter

    def block_on_miss(self, proc: "MpiProcess", op: IoOp) -> Event:
        """A rank's read missed; join (or open) a cycle and block."""
        cyc = self._ensure_cycle()
        # The missed op itself was already consumed by the normal cursor,
        # so the ghost will not see it: record its prediction here.
        cyc.record(proc.rank, op.file_name, op.prediction)
        cyc.blocked_ranks.add(proc.rank)
        return cyc.resume_event

    def block_on_quota(self, proc: "MpiProcess") -> Event:
        """A rank filled its dirty-write quota; block until writeback."""
        cyc = self._ensure_cycle()
        cyc.blocked_ranks.add(proc.rank)
        return cyc.resume_event

    def on_server_fault(self, server_index: int) -> None:
        """A data server crashed: any open pre-execution is planning
        batches that include it, so stop the ghosts now.  CRM then plans
        around the dead server ("all unfinished pre-executions are
        stopped" -- the paper's deadline rule, triggered early)."""
        cyc = self._cycle
        if cyc is None or cyc.issuing:
            return
        for g in cyc.ghosts:
            if g.is_alive:
                g.interrupt("server-fault")

    # ------------------------------------------------------------------

    def _ensure_cycle(self) -> Cycle:
        if self._cycle is not None:
            return self._cycle
        self._account_previous_cycle()
        self._cycle_counter += 1
        self.n_cycles += 1
        cyc = Cycle(
            cycle_id=self._cycle_counter,
            resume_event=self.sim.event(),
            started_at=self.sim.now,
            deadline_s=self._fill_deadline_s(),
        )
        self._cycle = cyc
        for proc in self.job.procs:
            cyc.ghosts.append(
                self.sim.process(
                    self._ghost(cyc, proc), name=f"ghost-{self.job.name}:{proc.rank}"
                )
            )
        self.sim.process(self._controller(cyc), name=f"pec-{self.job.name}")
        return cyc

    def _account_previous_cycle(self) -> None:
        # Account the cycle BEFORE the previous one: ranks progress at
        # different speeds, so when one rank's miss opens cycle N+1 its
        # peers may legitimately still be consuming cycle-N data.  One
        # cycle of grace separates "not consumed yet" from "mis-prefetched";
        # genuinely wrong chunks (Table III) still flag within two cycles.
        target = self._cycle_counter - 1
        if target <= 0:
            return
        cache = self.engine.cache
        unused, total = cache.misprefetch_stats(self.job.job_id, target)
        if total > 0:
            ratio = unused / total
            self.misprefetch_history.append((target, ratio))
            if self._ts_misprefetch is not None:
                self._ts_misprefetch.record(self.sim.now, ratio)
            # Not charged network time: report to the MDS job registry (DESIGN.md).
            self.engine.system.report_misprefetch(self.engine, ratio)
            if self.config.misprefetched(ratio):
                # Only demonstrably wrong data is evicted; TTL ages out
                # the long tail.
                cache.purge_unused(self.job.job_id, target)

    def _fill_deadline_s(self) -> float:
        """Expected time to fill the quota from recent per-rank throughput."""
        cfg = self.config
        bytes_total = sum(
            p.metrics.bytes_read + p.metrics.bytes_written for p in self.job.procs
        )
        io_time = sum(p.metrics.io_time_s for p in self.job.procs)
        per_rank_rate = (
            bytes_total / io_time / max(self.job.nprocs, 1) if io_time > 0 else 0.0
        )
        per_rank_rate = max(per_rank_rate, 1e6)  # floor: 1 MB/s
        expected = cfg.quota_bytes / per_rank_rate
        return min(max(DEADLINE_FACTOR * expected, DEADLINE_MIN_S), DEADLINE_MAX_S)

    # ------------------------------------------------------------------

    def _ghost(self, cyc: Cycle, proc: "MpiProcess"):
        """Pre-execution of one rank: replay ahead, record reads."""
        sim = self.sim
        cfg = self.config
        budget = max(
            cfg.quota_bytes - self.engine.quota_of(proc.rank).dirty_bytes, 0
        )
        guard = self.engine.system.guard
        if guard is not None:
            # Guard backpressure: a job at its memory cap stops recording
            # almost immediately instead of planning unprefetchable data.
            headroom = guard.budget.job_headroom(self.job.job_id)
            if headroom < budget:
                budget = headroom
                guard.budget.record_blocked()
        planned = 0
        try:
            for op in proc.stream.peek():
                if isinstance(op, ComputeOp):
                    ghost_t = op.seconds * cfg.ghost_compute_factor
                    if ghost_t > 0:
                        yield sim.timeout(ghost_t)
                elif isinstance(op, BarrierOp):
                    # Ghosts do not synchronise; charge the wire cost only.
                    yield sim.timeout(self.job._barrier_cost_s())
                elif isinstance(op, IoOp) and op.op == "R":
                    cyc.record(proc.rank, op.file_name, op.prediction)
                    planned += sum(s.length for s in op.prediction)
                    if planned >= budget:
                        break
                # Writes are absorbed by the cache during normal execution;
                # the ghost neither issues nor records them.
        except Interrupt as exc:
            if exc.cause == "server-fault":
                self.n_fault_stops += 1
            else:
                self.n_deadline_stops += 1

    def _controller(self, cyc: Cycle):
        tr = self._tracer
        if tr is not None:
            # Async span: a job's cycles never overlap, but several jobs'
            # cycles can, each on its own track.
            with tr.span(
                "pec.cycle",
                track=f"pec.{self.job.name}",
                cat="dualpar",
                async_=True,
                cycle=cyc.cycle_id,
                deadline_s=cyc.deadline_s,
            ):
                yield from self._controller_body(cyc)
        else:
            yield from self._controller_body(cyc)

    def _controller_body(self, cyc: Cycle):
        sim = self.sim
        ghosts_done = all_of(sim, cyc.ghosts)
        deadline = sim.timeout(cyc.deadline_s)
        yield any_of(sim, [ghosts_done, deadline])
        for g in cyc.ghosts:
            if g.is_alive:
                g.interrupt("fill-deadline")
        yield all_of(sim, cyc.ghosts)
        cyc.issuing = True
        yield from self.engine.crm.run_cycle(cyc)
        self._cycle = None
        cyc.resume_event.succeed(cyc.cycle_id)
