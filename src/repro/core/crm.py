"""Cache and Request Management: batched prefetch and writeback.

CRM turns the requests a cycle recorded into the fewest, largest, best-
ordered server requests (paper SIV-D):

- requests from *all* processes of the program are pooled per compute
  node, sorted by file offset, and adjacent requests merged;
- small holes between merged requests are absorbed -- for reads the hole
  data is simply fetched too, for writes the holes are first *read* so
  the covering extent can be written back whole (read-modify-write);
- the resulting extents are issued with list I/O in ascending offset
  order, all at once, so every data server's elevator sees a deep sorted
  queue.

Prefetched chunks are stored into the global cache (round-robin owners);
dirty chunks are written back from their owner nodes and marked clean.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.extents import Segment, coalesce_counting, coalesce_segments
from repro.mpiio.listio import batch_io
from repro.sim import all_of

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.engine import DualParEngine
    from repro.core.pec import Cycle

__all__ = ["Crm"]


class Crm:
    """One per DualPar job (operating per compute node internally)."""

    def __init__(self, engine: "DualParEngine"):
        self.engine = engine
        self.sim = engine.sim
        self.config = engine.config
        self.n_prefetch_batches = 0
        self.n_writeback_batches = 0
        self.prefetched_bytes = 0
        self.writeback_bytes = 0
        #: The node whose CRM leads span partitioning: first in every
        #: node list.  Nominally node 0, re-elected if evicted.
        spec = engine.runtime.cluster.spec
        self.coordinator_node = spec.compute_node_id(0)
        self.n_reelections = 0
        self.n_deferred_prefetch_chunks = 0
        self.n_deferred_writeback_chunks = 0
        self._tracer = self.sim.obs.tracer if self.sim.obs is not None else None

    # ------------------------------------------------------------------

    def _live_nodes(self) -> list[int]:
        """Compute nodes available for CRM batch work, coordinator first.

        The global cache's ring, in id order: nominally every node, with
        the coordinator (node 0) already first; under cache-node eviction
        the evicted nodes drop out.
        """
        nodes = self.engine.cache.live_nodes()
        if self.coordinator_node in nodes and nodes[0] != self.coordinator_node:
            nodes.remove(self.coordinator_node)
            nodes.insert(0, self.coordinator_node)
        return nodes

    def on_node_fault(self, node_id: int) -> None:
        """A compute node left (cache eviction): re-elect the coordinator
        if it was the one lost -- lowest live node id wins."""
        if node_id != self.coordinator_node:
            return
        live = self._live_nodes()
        self.coordinator_node = live[0]
        self.n_reelections += 1
        if self._tracer is not None:
            self._tracer.instant(
                "crm.reelection",
                track="faults",
                cat="fault",
                old=node_id,
                new=self.coordinator_node,
            )

    def _spans_dead_server(self, f, offset: int, length: int, live: frozenset) -> bool:
        """Does [offset, offset+length) of ``f`` touch a down server?"""
        return any(p.server not in live for p in f.layout.split(offset, length))

    # ------------------------------------------------------------------

    def run_cycle(self, cyc: "Cycle"):
        """Writeback first, then prefetch; both batched per node."""
        yield from self.writeback_all()
        yield from self._prefetch(cyc)

    # ---------------------------------------------------------- prefetch

    def _chunks_needed(self, cyc: "Cycle") -> dict[int, dict[str, list[int]]]:
        """node -> file -> sorted chunk indices to fetch.

        Chunks are deduplicated globally (several ranks on several nodes
        often record overlapping data), then the sorted chunk list of each
        file is partitioned into *contiguous spans*, one per compute node:
        each node issues one large, mostly-sequential batched read and then
        distributes the chunks to their cache owners.  Contiguity at the
        fetcher is what lets the data servers' elevators build long
        sequential sweeps.
        """
        cache = self.engine.cache
        cb = cache.chunk_bytes
        fs = self.engine.runtime.cluster.fs
        nodes = self._live_nodes()
        # Not charged network time: server-health query to the MDS (DESIGN.md).
        live_servers = self.engine.system.emc.live_servers()
        recorded: dict[str, list[Segment]] = {}
        for per_file in cyc.recorded.values():
            for file_name, segs in per_file.items():
                recorded.setdefault(file_name, []).extend(segs)
        wanted: dict[str, list[int]] = {}
        for file_name, segs in recorded.items():
            try:
                f = fs.lookup(file_name)
            except FileNotFoundError:
                continue  # a mis-predicted file name
            indices = wanted[file_name] = []
            # Ranges less than a chunk apart are merged, so no chunk lies
            # in two ranges: each is tested once, in index order.
            for seg in coalesce_segments(segs, hole_threshold=cb - 1):
                end = min(seg.end, f.size)
                for idx in cache.missing_chunks(file_name, seg.offset, end):
                    lo = idx * cb
                    if live_servers is not None and self._spans_dead_server(
                        f, lo, min(lo + cb, f.size) - lo, live_servers
                    ):
                        # Striped on a dead server: defer; the blocked
                        # rank falls back to a direct (retrying) read
                        # after the cycle.
                        self.n_deferred_prefetch_chunks += 1
                    else:
                        indices.append(idx)
        guard = self.engine.system.guard
        if guard is not None:
            # Budget backpressure: cap the plan at the job's remaining
            # headroom, shedding the highest chunk indices (the furthest-
            # ahead, lowest-priority predictions) file by file.
            allow = guard.budget.job_headroom(self.engine.job.job_id) // cb
            for indices in wanted.values():
                if len(indices) > allow:
                    guard.budget.record_shed_plan(len(indices) - allow)
                    del indices[allow:]
                allow -= len(indices)
        out: dict[int, dict[str, list[int]]] = {}
        for file_name, indices in wanted.items():
            if not indices:
                continue
            span = -(-len(indices) // len(nodes))
            for i, node in enumerate(nodes):
                part = indices[i * span : (i + 1) * span]
                if part:
                    out.setdefault(node, {})[file_name] = part
        return out

    def _prefetch(self, cyc: "Cycle"):
        sim = self.sim
        needed = self._chunks_needed(cyc)
        node_procs = [
            sim.process(self._prefetch_node(node, per_file), name=f"crm-pf-n{node}")
            for node, per_file in sorted(needed.items())
        ]
        if node_procs:
            self.n_prefetch_batches += 1
            yield all_of(sim, node_procs)

    def _prefetch_node(self, node: int, per_file: dict[str, list[int]]):
        """One node's CRM fetches its span of chunks, sorted+merged."""
        cache = self.engine.cache
        cb = cache.chunk_bytes
        fs = self.engine.runtime.cluster.fs
        client = self.engine.runtime.cluster.clients[node]
        stream_id = self.engine.crm_stream_id(node)
        hole = self.config.hole_threshold_bytes
        pending = []
        for file_name in sorted(per_file):
            indices = per_file[file_name]
            f = fs.lookup(file_name)
            # Every planned chunk starts below the file's end.
            segs = [Segment(i * cb, min(i * cb + cb, f.size) - i * cb) for i in indices]
            merged = coalesce_segments(segs, hole_threshold=hole)
            total = sum(s.length for s in merged)
            if self.config.use_list_io:
                yield from batch_io(client, f, merged, "R", stream_id)
            else:
                for seg in merged:
                    yield from client.io(f, seg.offset, seg.length, "R", stream_id)
            self.prefetched_bytes += total
            # Store every covered chunk (hole-filled data is cached too):
            # one batched multiput scatters each merged segment's run of
            # chunks to their owners, in the background -- cache inserts
            # pipeline behind the fetch.
            if merged:
                pending.append(
                    self.sim.process(
                        cache.multiput(
                            file_name,
                            merged,
                            from_node=node,
                            cycle_id=self.engine.pec.current_cycle_id,
                            job_id=self.engine.job.job_id,
                        ),
                        name="crm-put",
                    )
                )
        if pending:
            yield all_of(self.sim, pending)

    # --------------------------------------------------------- writeback

    def writeback_all(self):
        """Write every dirty chunk of this job back, batched per owner node."""
        cache = self.engine.cache
        fs = self.engine.runtime.cluster.fs
        dirty = cache.dirty_chunks(self.engine.job.job_id)
        # Not charged network time: server-health query to the MDS (DESIGN.md).
        live_servers = self.engine.system.emc.live_servers()
        if live_servers is not None and dirty:
            cb = cache.chunk_bytes
            writable = []
            for chunk in dirty:
                try:
                    f = fs.lookup(chunk.file_name)
                except FileNotFoundError:
                    writable.append(chunk)
                    continue
                lo = chunk.index * cb
                ln = max(min(lo + cb, f.size) - lo, 1)
                if self._spans_dead_server(f, lo, ln, live_servers):
                    # Stays dirty in the cache until the server returns;
                    # a later cycle (or job finalize) writes it back.
                    self.n_deferred_writeback_chunks += 1
                else:
                    writable.append(chunk)
            dirty = writable
        if not dirty:
            return
        by_node: dict[int, dict[str, list[Segment]]] = {}
        for chunk in dirty:
            per_file = by_node.setdefault(chunk.owner_node, {})
            per_file.setdefault(chunk.file_name, []).extend(chunk.dirty_ranges)
        node_procs = [
            self.sim.process(
                self._writeback_node(node, per_file), name=f"crm-wb-n{node}"
            )
            for node, per_file in sorted(by_node.items())
        ]
        self.n_writeback_batches += 1
        yield all_of(self.sim, node_procs)
        for chunk in dirty:
            cache.clean(chunk.file_name, chunk.index)
        for rank in range(self.engine.job.nprocs):
            self.engine.quota_of(rank).reset_dirty()

    def _writeback_node(self, node: int, per_file: dict[str, list[Segment]]):
        fs = self.engine.runtime.cluster.fs
        client = self.engine.runtime.cluster.clients[node]
        stream_id = self.engine.crm_stream_id(node)
        hole = self.config.hole_threshold_bytes
        for file_name in sorted(per_file):
            f = fs.lookup(file_name)
            segs = per_file[file_name]
            merged, requested = coalesce_counting(segs, hole)
            covered = sum(s.length for s in merged)
            to_write = merged
            if covered > requested:
                # Holes bridged: read-modify-write the covering extents.
                yield from batch_io(client, f, merged, "R", stream_id)
            if self.config.use_list_io:
                yield from batch_io(client, f, to_write, "W", stream_id)
            else:
                for seg in to_write:
                    yield from client.io(f, seg.offset, seg.length, "W", stream_id)
            self.writeback_bytes += requested
