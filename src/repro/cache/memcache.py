"""The global chunked cache (Memcached stand-in).

Chunk metadata lives in one registry (the simulation does not move real
bytes); *access costs* are charged as network transfers between the
requesting compute node and the chunk's owner node, plus a small
per-operation CPU cost -- which is what Memcached costs in practice.

Accounting supported:

- time tags (``last_used``) with TTL-based eviction;
- dirty chunks with byte-exact dirty extents for writeback;
- per-prefetch-cycle ``used`` flags feeding the mis-prefetch ratio.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generator, Optional

from repro.cache.chunk import DEFAULT_CHUNK_BYTES, ChunkKey
from repro.extents import Segment, coalesce_segments
from repro.net.ethernet import Network
from repro.sim import Simulator

__all__ = ["CachedChunk", "GlobalCache"]

#: CPU cost of one memcached get/set.
CACHE_OP_CPU_S = 5e-6

#: A chunk not used for this long is expired at its next lookup.
TTL_S = 30.0


@dataclass
class CachedChunk:
    key: ChunkKey
    owner_node: int
    last_used: float
    cycle_id: int
    used: bool = False
    dirty: bool = False
    #: Dirty byte ranges within the chunk, as file segments.
    dirty_ranges: list[Segment] = field(default_factory=list)
    job_id: Optional[int] = None


class GlobalCache:
    """One instance per cluster; shared by all DualPar jobs."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        compute_node_ids: list[int],
        chunk_bytes: int = DEFAULT_CHUNK_BYTES,
    ):
        if not compute_node_ids:
            raise ValueError("need at least one compute node")
        self.sim = sim
        self.network = network
        self.compute_node_ids = list(compute_node_ids)
        self.chunk_bytes = chunk_bytes
        #: Live placement ring: compute_node_ids minus evicted nodes.
        self._ring = list(compute_node_ids)
        self._failed_nodes: set[int] = set()
        self.n_node_failures = 0
        self._chunks: dict[ChunkKey, CachedChunk] = {}
        #: Guard memory budget (repro.guard.MemoryBudget) when a safety
        #: governor is attached; None nominally.  Every resident chunk is
        #: charged against its job and owner node; prefetched chunks that
        #: would breach a cap are shed at the insert point.
        self.budget = None
        self.n_gets = 0
        self.n_hits = 0
        self.n_puts = 0
        self.n_evictions = 0
        if sim.obs is not None:
            reg = sim.obs.registry
            reg.view("cache.gets", "counter", lambda: self.n_gets)
            reg.view("cache.hits", "counter", lambda: self.n_hits)
            reg.view("cache.puts", "counter", lambda: self.n_puts)
            reg.view("cache.evictions", "counter", lambda: self.n_evictions)

    # ------------------------------------------------------------- placement

    def owner_of(self, key: ChunkKey) -> int:
        """Round-robin chunk placement across the live cache nodes."""
        return self._ring[key.index % len(self._ring)]

    def live_nodes(self) -> list[int]:
        """The cache nodes in the ring (every compute node but the
        evicted ones), in id order."""
        return list(self._ring)

    def fail_node(self, node: int) -> tuple[int, int]:
        """Evict a cache node from the ring (fault-injector entry point).

        Clean chunks the node owned are simply lost (a Memcached restart
        forgets everything).  Dirty chunks must not be lost -- that would
        silently drop committed application writes -- so their *metadata*
        migrates to the chunk's new ring owner, modelling the replicated
        dirty-set a production deployment keeps.  Returns
        ``(evicted_chunks, migrated_chunks)``.
        """
        if node not in self.compute_node_ids:
            raise ValueError(f"node {node} is not a cache node")
        if node in self._failed_nodes:
            raise ValueError(f"node {node} already evicted")
        ring = [n for n in self._ring if n != node]
        if not ring:
            raise ValueError("cannot evict the last cache node")
        self._failed_nodes.add(node)
        self._ring = ring
        self.n_node_failures += 1
        victims = [
            k for k, c in self._chunks.items() if c.owner_node == node and not c.dirty
        ]
        for k in victims:
            self._drop(k)
        self.n_evictions += len(victims)
        migrated = 0
        for c in self._chunks.values():
            if c.owner_node == node:
                c.owner_node = self.owner_of(c.key)
                if self.budget is not None:
                    self.budget.transfer_node(self.chunk_bytes, node, c.owner_node)
                migrated += 1
        return len(victims), migrated

    def restore_node(self, node: int) -> None:
        """Return an evicted node to the ring (empty, like a restart)."""
        if node not in self._failed_nodes:
            raise ValueError(f"node {node} is not evicted")
        self._failed_nodes.discard(node)
        self._ring = [n for n in self.compute_node_ids if n not in self._failed_nodes]

    # ------------------------------------------------------------- queries

    def peek(self, key: ChunkKey) -> Optional[CachedChunk]:
        """Metadata lookup without cost or use-marking (internal/tests)."""
        c = self._chunks.get(key)
        if c is not None and self.sim.now - c.last_used > TTL_S:
            # Lazy TTL expiry.
            self._drop(key)
            self.n_evictions += 1
            return None
        return c

    def contains(self, key: ChunkKey) -> bool:
        return self.peek(key) is not None

    def resident_bytes(self, job_id: Optional[int] = None) -> int:
        return sum(
            self.chunk_bytes
            for c in self._chunks.values()
            if job_id is None or c.job_id == job_id
        )

    # ------------------------------------------------------------- costed ops

    def get(self, key: ChunkKey, from_node: int, nbytes: Optional[int] = None) -> Generator:
        """Fetch (part of) a chunk to ``from_node``.

        Yields until the transfer completes; the generator returns True on
        hit, False on miss (a miss costs one small lookup round-trip).
        """
        self.n_gets += 1
        yield self.sim.timeout(CACHE_OP_CPU_S)
        chunk = self.peek(key)
        if chunk is None:
            yield from self.network.transfer(from_node, self.owner_of(key), 64)
            return False
        self.n_hits += 1
        chunk.last_used = self.sim.now
        chunk.used = True
        size = self.chunk_bytes if nbytes is None else min(nbytes, self.chunk_bytes)
        yield from self.network.transfer(chunk.owner_node, from_node, size)
        return True

    def put(
        self,
        key: ChunkKey,
        from_node: int,
        cycle_id: int = 0,
        job_id: Optional[int] = None,
        dirty_range: Optional[tuple[int, int]] = None,
    ) -> Generator:
        """Store a chunk (prefetched data or dirty write data).

        ``dirty_range`` is an absolute (start, end) file-byte range being
        written; passing it marks the chunk dirty and records the extent.
        Yields until the payload lands on the owner node.
        """
        self.n_puts += 1
        yield self.sim.timeout(CACHE_OP_CPU_S)
        owner = self.owner_of(key)
        size = (
            self.chunk_bytes
            if dirty_range is None
            else max(dirty_range[1] - dirty_range[0], 1)
        )
        yield from self.network.transfer(from_node, owner, size)
        self._store(key, cycle_id, job_id, dirty_range)

    # ------------------------------------------------------ batched ops

    def multiget(
        self, wants: list[tuple[ChunkKey, int]], from_node: int
    ) -> Generator:
        """Batched get (memcached multi-get): one message per owner node.

        ``wants`` is [(key, bytes_needed), ...].  Yields until all owner
        replies land; the generator returns {key: hit_bool}.
        """
        self.n_gets += len(wants)
        yield self.sim.timeout(CACHE_OP_CPU_S + 1e-6 * len(wants))
        result: dict[ChunkKey, bool] = {}
        by_owner: dict[int, int] = {}
        for key, nbytes in wants:
            chunk = self.peek(key)
            if chunk is None:
                result[key] = False
                by_owner.setdefault(self.owner_of(key), 0)
                by_owner[self.owner_of(key)] += 8  # miss flag bytes
                continue
            self.n_hits += 1
            chunk.last_used = self.sim.now
            chunk.used = True
            result[key] = True
            size = min(nbytes, self.chunk_bytes)
            by_owner.setdefault(chunk.owner_node, 0)
            by_owner[chunk.owner_node] += size
        if by_owner:
            yield self.network.transfer_all(
                [(owner, from_node, 64 + nbytes) for owner, nbytes in sorted(by_owner.items())],
                name="mc-get",
            )
        return result

    def multiput(
        self,
        puts: list[tuple[ChunkKey, Optional[tuple[int, int]]]],
        from_node: int,
        cycle_id: int = 0,
        job_id: Optional[int] = None,
    ) -> Generator:
        """Batched put: one payload message per owner node.

        ``puts`` is [(key, dirty_range_or_None), ...]; a None range means
        a full prefetched chunk.
        """
        self.n_puts += len(puts)
        yield self.sim.timeout(CACHE_OP_CPU_S + 1e-6 * len(puts))
        by_owner: dict[int, int] = {}
        for key, dirty_range in puts:
            owner = self.owner_of(key)
            size = (
                self.chunk_bytes
                if dirty_range is None
                else max(dirty_range[1] - dirty_range[0], 1)
            )
            by_owner[owner] = by_owner.get(owner, 0) + size
        if by_owner:
            yield self.network.transfer_all(
                [(from_node, owner, 64 + nbytes) for owner, nbytes in sorted(by_owner.items())],
                name="mc-put",
            )
        for key, dirty_range in puts:
            self._store(key, cycle_id, job_id, dirty_range)

    def _drop(self, key: ChunkKey) -> Optional[CachedChunk]:
        """Remove a chunk, releasing its budget charge; None if absent."""
        chunk = self._chunks.pop(key, None)
        if chunk is not None and self.budget is not None:
            self.budget.release(
                self.chunk_bytes, job_id=chunk.job_id, node=chunk.owner_node
            )
        return chunk

    def _store(
        self,
        key: ChunkKey,
        cycle_id: int,
        job_id: Optional[int],
        dirty_range: Optional[tuple[int, int]],
    ) -> None:
        chunk = self._chunks.get(key)
        if chunk is None:
            if self.budget is not None:
                owner = self.owner_of(key)
                if dirty_range is None:
                    # Speculative prefetch: shed at the cap rather than
                    # growing without bound.
                    if not self.budget.try_charge(
                        self.chunk_bytes, job_id=job_id, node=owner
                    ):
                        return
                else:
                    # Dirty data is never refused -- dropping it would
                    # silently lose committed application writes.
                    self.budget.charge(self.chunk_bytes, job_id=job_id, node=owner)
            chunk = CachedChunk(
                key=key,
                owner_node=self.owner_of(key),
                last_used=self.sim.now,
                cycle_id=cycle_id,
                job_id=job_id,
            )
            self._chunks[key] = chunk
        chunk.last_used = self.sim.now
        chunk.cycle_id = cycle_id
        if job_id is not None:
            if (
                self.budget is not None
                and chunk.job_id is not None
                and chunk.job_id != job_id
            ):
                # Ownership handover: move the charge between job ledgers.
                self.budget.release(self.chunk_bytes, job_id=chunk.job_id)
                self.budget.charge(self.chunk_bytes, job_id=job_id)
            chunk.job_id = job_id
        if dirty_range is not None:
            chunk.dirty = True
            # Append is O(1); BTIO-style programs write thousands of tiny
            # ranges per chunk, so merging on every insert would go
            # quadratic.  Compact periodically; writeback coalesces anyway.
            start, end = dirty_range
            seg = Segment(start, end - start)
            chunk.dirty_ranges.append(seg)  # simlint: ignore[SL007] cache-owned payload
            if len(chunk.dirty_ranges) >= 512:
                chunk.dirty_ranges = coalesce_segments(chunk.dirty_ranges)

    # ------------------------------------------------------------- lifecycle

    def dirty_chunks(self, job_id: Optional[int] = None) -> list[CachedChunk]:
        return [
            c
            for c in self._chunks.values()
            if c.dirty and (job_id is None or c.job_id == job_id)
        ]

    def clean(self, key: ChunkKey) -> None:
        c = self._chunks.get(key)
        if c is not None:
            c.dirty = False
            c.dirty_ranges = []

    def misprefetch_stats(self, job_id: int, cycle_id: int) -> tuple[int, int]:
        """(unused, total) prefetched chunks of a given job cycle."""
        total = 0
        unused = 0
        for c in self._chunks.values():
            if c.job_id == job_id and c.cycle_id == cycle_id and not c.dirty:
                total += 1
                if not c.used:
                    unused += 1
        return unused, total

    def purge_unused(self, job_id: int, cycle_id: int) -> int:
        """Evict unused prefetched chunks of a finished cycle; returns count."""
        victims = [
            k
            for k, c in self._chunks.items()
            if c.job_id == job_id and c.cycle_id == cycle_id and not c.used and not c.dirty
        ]
        for k in victims:
            self._drop(k)
        self.n_evictions += len(victims)
        return len(victims)

    def purge_job(self, job_id: int) -> int:
        victims = [k for k, c in self._chunks.items() if c.job_id == job_id]
        for k in victims:
            self._drop(k)
        return len(victims)

    @property
    def hit_ratio(self) -> float:
        return self.n_hits / self.n_gets if self.n_gets else 0.0
