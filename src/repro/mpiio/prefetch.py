"""Strategy 2: pre-execution prefetching with immediate issue.

Models the SC'08 approach the paper compares against (Chen et al.,
"Hiding I/O Latency with Pre-execution Prefetching"): a per-rank
speculative thread runs ahead of the program -- computation *stripped*
via program slicing -- and issues each predicted read to the data servers
the moment it is generated.  The goal is overlap, not service order, so
requests trickle into the servers' queues and the elevator sees little to
sort: exactly the behaviour Figs 1(c) and 1(b) document.

Prefetched data lands in the global cache; the normal process consumes it
from there, falling back to a direct synchronous read on a miss or a
mis-prediction.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator

from repro.cache.chunk import ChunkKey, chunk_range
from repro.cache.memcache import GlobalCache
from repro.mpi.ops import IoOp
from repro.mpiio.engine import IndependentEngine
from repro.sim import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.mpi.runtime import MpiJob, MpiProcess, MpiRuntime

__all__ = ["PreexecPrefetchEngine"]

#: CPU cost for the speculative thread to generate one request.
SPECULATION_OP_CPU_S = 5e-6

#: Bytes one rank's speculative thread may run ahead of the program
#: (prefetches in flight plus prefetched chunks not yet consumed).
WINDOW_BYTES = 1024 * 1024


class PreexecPrefetchEngine(IndependentEngine):
    """Strategy 2: a per-rank speculative thread runs ahead (computation
    sliced away) and issues each predicted read immediately."""

    name = "preexec-prefetch"

    def __init__(self, runtime: "MpiRuntime", job: "MpiJob"):
        super().__init__(runtime, job)
        self.cache: GlobalCache = runtime.global_cache
        #: chunks currently being prefetched: key -> completion event
        self._inflight: dict[ChunkKey, Event] = {}
        #: per-rank bytes currently speculated ahead (in flight + unconsumed)
        self._window_used: dict[int, int] = {}
        self._window_wakeup: dict[int, Event] = {}
        self.n_prefetches = 0
        self.n_prefetch_hits = 0

    # ------------------------------------------------------------------

    def on_job_start(self) -> None:
        for proc in self.job.procs:
            self.sim.process(
                self._speculator(proc), name=f"spec-{self.job.name}:{proc.rank}"
            )

    def _chunk_key(self, file_name: str, idx: int) -> ChunkKey:
        return ChunkKey(file_name, idx)

    def _speculator(self, proc: "MpiProcess"):
        """The per-rank speculative thread."""
        sim = self.sim
        cb = self.cache.chunk_bytes
        for op in proc.stream.peek():
            if proc.stream.lookahead_len > 100_000:
                # Runaway guard: nothing read-shaped for a very long
                # stretch (e.g. a write-only program) -- stop speculating.
                break
            # Computation is sliced away ("we remove all the computation
            # from the pre-execution", paper SII): only reads are speculated.
            if not isinstance(op, IoOp) or op.op != "R":
                continue
            for seg in op.prediction:
                for idx in chunk_range(seg.offset, seg.length, cb):
                    key = self._chunk_key(op.file_name, idx)
                    if key in self._inflight or self.cache.contains(key):
                        continue
                    # Respect the speculation window (bounded run-ahead).
                    while self._window_used.get(proc.rank, 0) + cb > WINDOW_BYTES:
                        ev = self.sim.event()
                        self._window_wakeup[proc.rank] = ev
                        yield ev
                    self._window_used[proc.rank] = (
                        self._window_used.get(proc.rank, 0) + cb
                    )
                    yield sim.timeout(SPECULATION_OP_CPU_S)
                    done = sim.event()
                    self._inflight[key] = done
                    self.n_prefetches += 1
                    sim.process(
                        self._fetch_chunk(proc, key, done),
                        name=f"pf-{self.job.name}:{proc.rank}",
                    )

    def _fetch_chunk(self, proc: "MpiProcess", key: ChunkKey, done: Event):
        """Issue one chunk read immediately (the defining Strategy-2 move)."""
        f = self.lookup_file(key.file_name)
        client = self.client_of(proc)
        cb = self.cache.chunk_bytes
        offset = key.index * cb
        length = min(cb, f.size - offset)
        if length > 0:
            yield from client.io(f, offset, length, "R", proc.stream_id)
            yield from self.cache.put(
                key, from_node=proc.node_id, job_id=self.job.job_id
            )
        self._inflight.pop(key, None)
        done.succeed()

    def _release_window(self, rank: int, nbytes: int) -> None:
        self._window_used[rank] = max(self._window_used.get(rank, 0) - nbytes, 0)
        ev = self._window_wakeup.pop(rank, None)
        if ev is not None and not ev.triggered:
            ev.succeed()

    # ------------------------------------------------------------------

    def do_io(self, proc: "MpiProcess", op: IoOp) -> Generator:
        if op.op != "R":
            yield from super().do_io(proc, op)
            return
        f = self.lookup_file(op.file_name)
        client = self.client_of(proc)
        cb = self.cache.chunk_bytes
        for seg in op.segments:
            for idx in chunk_range(seg.offset, seg.length, cb):
                key = self._chunk_key(op.file_name, idx)
                inflight = self._inflight.get(key)
                if inflight is not None:
                    yield inflight
                lo = max(seg.offset, idx * cb)
                hi = min(seg.end, (idx + 1) * cb)
                hit = yield from self.cache.get(key, proc.node_id, nbytes=hi - lo)
                if hit:
                    self.n_prefetch_hits += 1
                    self._release_window(proc.rank, cb)
                else:
                    # Mis-prediction or eviction: synchronous fallback.
                    yield from client.io(f, lo, hi - lo, "R", proc.stream_id)
