"""The DualPar ADIO interception engine.

In *normal* (computation-driven) mode every call is delegated to the
vanilla independent engine -- DualPar "is
minimally intrusive to a well-behaved system".  In *data-driven* mode:

- reads are served from the global cache; a miss blocks the call and
  joins a pre-execution cycle (see :mod:`repro.core.pec`); if the data is
  still missing after the cycle (mis-prediction), the read falls through
  to a direct synchronous request;
- writes land in the cache as dirty chunks; a rank whose quota fills
  blocks until the next cycle writes everything back.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator

from repro.cache.memcache import GlobalCache
from repro.cache.quota import QuotaTracker
from repro.core.config import DualParConfig
from repro.core.crm import Crm
from repro.core.pec import Pec
from repro.mpi.ops import IoOp
from repro.mpiio.engine import IndependentEngine, IoEngine

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.system import DualParSystem
    from repro.mpi.runtime import MpiJob, MpiProcess, MpiRuntime

__all__ = ["DualParEngine"]

#: Job-scoped counters published as views: (metric, part, attribute) reads
#: ``engine.<part>.<attribute>`` into ``<part>.<job>.<metric>``.
_JOB_COUNTERS = (
    ("cycles", "pec", "n_cycles"),
    ("deadline_stops", "pec", "n_deadline_stops"),
    ("fault_stops", "pec", "n_fault_stops"),
    ("prefetched_bytes", "crm", "prefetched_bytes"),
    ("writeback_bytes", "crm", "writeback_bytes"),
    ("prefetch_batches", "crm", "n_prefetch_batches"),
    ("writeback_batches", "crm", "n_writeback_batches"),
)


class DualParEngine(IoEngine):
    """The DualPar ADIO interception layer: delegates to the vanilla
    engine in computation-driven mode; serves reads from the global cache
    and buffers writes in data-driven mode."""

    name = "dualpar"

    def __init__(
        self,
        runtime: "MpiRuntime",
        job: "MpiJob",
        system: "DualParSystem",
        config: DualParConfig,
    ):
        super().__init__(runtime, job)
        self.system = system
        self.config = config
        self.cache: GlobalCache = runtime.global_cache
        self.normal = IndependentEngine(runtime, job)
        self.pec = Pec(self)
        self.crm = Crm(self)
        if self.sim.obs is not None:
            self._register_views(self.sim.obs.registry)
        self._quotas: dict[int, QuotaTracker] = {}
        self._crm_streams: dict[int, int] = {}
        self._finished_ranks = 0
        #: Set when mis-prefetching disabled the mode permanently.
        self.locked_out = False
        self.n_cache_hits = 0
        self.n_cache_misses = 0
        self.n_direct_fallback_bytes = 0

    def _register_views(self, registry) -> None:
        """Publish PEC's and CRM's counters under this job's (unique) name."""
        name = self.job.name
        for metric, part, attr in _JOB_COUNTERS:
            registry.view(
                f"{part}.{name}.{metric}",
                "counter",
                lambda part=part, attr=attr: getattr(getattr(self, part), attr),
            )

    # ------------------------------------------------------------------

    def quota_of(self, rank: int) -> QuotaTracker:
        q = self._quotas.get(rank)
        if q is None:
            q = QuotaTracker(self.config.quota_bytes)
            self._quotas[rank] = q
        return q

    def crm_stream_id(self, node: int) -> int:
        sid = self._crm_streams.get(node)
        if sid is None:
            sid = self.runtime._next_stream_id()
            self._crm_streams[node] = sid
        return sid

    def set_mode(self, mode: str) -> None:
        """EMC's lever.  Leaving data-driven mode flushes dirty data."""
        if mode not in ("normal", "datadriven"):
            raise ValueError(f"bad mode {mode!r}")
        if mode == self.job.mode:
            return
        self.job.mode = mode
        # Not charged network time: report to the MDS job registry (DESIGN.md).
        self.system.log_transition(self.job, mode)
        if mode == "normal" and self.cache.dirty_chunks(self.job.job_id):
            self.sim.process(self.crm.writeback_all(), name=f"flush-{self.job.name}")

    # ------------------------------------------------------------------

    def on_job_start(self) -> None:
        if self.config.force_mode is not None:
            self.job.mode = self.config.force_mode
        # Not charged network time: report to the MDS job registry (DESIGN.md).
        self.system.register(self)

    def on_job_end(self) -> None:
        # Not charged network time: report to the MDS job registry (DESIGN.md).
        self.system.unregister(self)
        self.cache.purge_job(self.job.job_id)

    def finalize_rank(self, proc: "MpiProcess") -> Generator:
        self._finished_ranks += 1
        if self._finished_ranks == self.job.nprocs:
            # Last rank out flushes whatever is still dirty so write
            # throughput measurements include the final writeback.
            yield from self.crm.writeback_all()

    # ------------------------------------------------------------------

    def do_io(self, proc: "MpiProcess", op: IoOp) -> Generator:
        # Not charged network time: report to the MDS job registry (DESIGN.md).
        self.system.record_request(proc, op)
        # A zero quota means no cache space at all: the data-driven mode
        # is "essentially disabled" (Fig 8's 0 KB point) regardless of
        # what EMC or force_mode says.  An open guard circuit breaker
        # likewise bypasses the cache (degraded mode) until a half-open
        # probe closes it again.
        guard = self.system.guard
        if (
            self.job.mode != "datadriven"
            or self.config.quota_bytes == 0
            or (guard is not None and not guard.cache_allowed())
        ):
            yield from self.normal.do_io(proc, op)
            return
        if op.op == "R":
            yield from self._dd_read(proc, op)
        else:
            yield from self._dd_write(proc, op)

    # ------------------------------------------------------------- reads

    def _consume(self, proc: "MpiProcess", file_name: str, ranges) -> Generator:
        """Serve byte ranges from the cache; generator returns the missing
        chunk pieces.

        One multi-get covers the whole MPI-IO call (the instrumented
        library fetches all the call's chunks from Memcached in a batch).
        """
        guard = self.system.guard
        started_at = self.sim.now
        missing, n_hits = yield from self.cache.multiget(file_name, ranges, proc.node_id)
        if guard is not None:
            # The breaker scores every batched multi-get by its latency.
            guard.record_cache_op(self.sim.now - started_at)
        self.n_cache_hits += n_hits
        self.n_cache_misses += len(missing)
        return missing

    def _dd_read(self, proc: "MpiProcess", op: IoOp) -> Generator:
        ranges = [(s.offset, s.end) for s in op.segments]
        missing = yield from self._consume(proc, op.file_name, ranges)
        if not missing:
            return
        op_pos = proc.stream.n_consumed
        if proc.cycle_attempted_at != op_pos and self.job.mode == "datadriven":
            proc.cycle_attempted_at = op_pos
            resume = self.pec.block_on_miss(proc, op)
            yield resume
            missing = yield from self._consume(proc, op.file_name, missing)
            if not missing:
                return
        # Mis-prediction (or a mode flip mid-block): direct synchronous
        # reads for whatever is still absent.
        f = self.lookup_file(op.file_name)
        client = self.client_of(proc)
        for lo, hi in missing:
            self.n_direct_fallback_bytes += hi - lo
            yield from client.io(f, lo, hi - lo, "R", proc.stream_id)

    # ------------------------------------------------------------- writes

    def _dd_write(self, proc: "MpiProcess", op: IoOp) -> Generator:
        quota = self.quota_of(proc.rank)
        quota.add_dirty(op.total_bytes)
        yield from self.cache.multiput(
            op.file_name,
            op.segments,
            from_node=proc.node_id,
            cycle_id=self.pec.current_cycle_id,
            job_id=self.job.job_id,
            dirty=True,
        )
        if quota.full:
            yield self.pec.block_on_quota(proc)
