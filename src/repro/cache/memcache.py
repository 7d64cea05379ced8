"""The global chunked cache (Memcached stand-in).

Chunk metadata lives in one registry, per file and keyed by chunk index
(the simulation does not move real bytes); *access costs* are charged as
network transfers between the requesting compute node and the chunk's
owner node, plus a small per-operation CPU cost -- which is what
Memcached costs in practice.  The batched operations take byte ranges of
one file: each range is a run of consecutive chunk indices.

Accounting supported:

- time tags (``last_used``) with TTL-based eviction;
- dirty chunks with byte-exact dirty extents for writeback;
- per-prefetch-cycle ``used`` flags feeding the mis-prefetch ratio.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Generator, Iterator, Optional

from repro.cache.chunk import DEFAULT_CHUNK_BYTES, ChunkKey
from repro.extents import Segment, coalesce_segments
from repro.net.ethernet import Network
from repro.sim import Simulator

__all__ = ["CachedChunk", "GlobalCache"]

#: CPU cost of one memcached get/set.
CACHE_OP_CPU_S = 5e-6

#: A chunk not used for this long is expired at its next lookup.
TTL_S = 30.0


@dataclass(slots=True)
class CachedChunk:
    file_name: str
    index: int
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
        #: Resident chunks: file name -> chunk index -> chunk.
        self._files: dict[str, dict[int, CachedChunk]] = {}
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
        evicted = self._drop_where(lambda c: c.owner_node == node and not c.dirty)
        self.n_evictions += evicted
        migrated = 0
        for c in self._resident():
            if c.owner_node == node:
                c.owner_node = ring[c.index % len(ring)]
                if self.budget is not None:
                    self.budget.transfer_node(self.chunk_bytes, node, c.owner_node)
                migrated += 1
        return evicted, migrated

    def restore_node(self, node: int) -> None:
        """Return an evicted node to the ring (empty, like a restart)."""
        if node not in self._failed_nodes:
            raise ValueError(f"node {node} is not evicted")
        self._failed_nodes.discard(node)
        self._ring = [n for n in self.compute_node_ids if n not in self._failed_nodes]

    # ------------------------------------------------------------- queries

    def _live(self, chunks: dict[int, CachedChunk], index: int) -> Optional[CachedChunk]:
        """The resident chunk at ``index``, or None; a chunk unused for
        over ``TTL_S`` is expired here (lazy TTL eviction)."""
        c = chunks.get(index)
        if c is not None and self.sim.now - c.last_used > TTL_S:
            self._drop(chunks, index)
            self.n_evictions += 1
            return None
        return c

    def peek(self, key: ChunkKey) -> Optional[CachedChunk]:
        """Metadata lookup without cost or use-marking (internal/tests)."""
        return self._live(self._files.get(key.file_name, {}), key.index)

    def contains(self, key: ChunkKey) -> bool:
        return self.peek(key) is not None

    def missing_chunks(self, file_name: str, lo: int, hi: int) -> list[int]:
        """Indices, in order, of the chunks covering bytes [lo, hi) of a
        file that are not resident (stale ones expire, as in :meth:`peek`)."""
        chunks = self._files.get(file_name, {})
        return [i for i, _, _ in self._pieces([(lo, hi)]) if self._live(chunks, i) is None]

    def _resident(self) -> Iterator[CachedChunk]:
        for chunks in self._files.values():
            yield from chunks.values()

    def resident_bytes(self, job_id: Optional[int] = None) -> int:
        n = sum(1 for c in self._resident() if job_id is None or c.job_id == job_id)
        return n * self.chunk_bytes

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
        piece = (key.index, 0, 0) if dirty_range is None else (key.index, *dirty_range)
        self._store(key.file_name, [piece], cycle_id, job_id, dirty_range is not None)

    # ------------------------------------------------------ batched ops

    def _pieces(self, ranges) -> list[tuple[int, int, int]]:
        """``(index, lo, hi)`` of every chunk piece of the byte ranges
        ``[(lo, hi), ...]``, in range order, then chunk order.  A range
        is a run of chunks ``lo // cb .. (hi - 1) // cb``; only its first
        and last piece can be partial."""
        cb = self.chunk_bytes
        pieces = []
        for lo, hi in ranges:
            if hi <= lo:
                continue
            for idx in range(lo // cb, (hi - 1) // cb + 1):
                base = idx * cb
                end = base + cb
                pieces.append((idx, lo if lo > base else base, hi if hi < end else end))
        return pieces

    def multiget(
        self, file_name: str, ranges: list[tuple[int, int]], from_node: int
    ) -> Generator:
        """Batched get of byte ranges of one file (memcached multi-get):
        one message per owner node.

        ``ranges`` is [(lo, hi), ...].  Yields until all owner replies
        land; the generator returns ``(missing, n_hits)``: the
        ``(lo, hi)`` piece of every chunk that missed, in range order,
        then chunk order, and the number of pieces that hit.
        """
        pieces = self._pieces(ranges)
        self.n_gets += len(pieces)
        yield self.sim.timeout(CACHE_OP_CPU_S + 1e-6 * len(pieces))
        now = self.sim.now
        chunks = self._files.get(file_name, {})
        ring = self._ring
        live = self._live
        missing: list[tuple[int, int]] = []
        by_owner: dict[int, int] = {}
        for idx, lo, hi in pieces:
            chunk = live(chunks, idx)
            if chunk is None:
                missing.append((lo, hi))
                owner = ring[idx % len(ring)]
                by_owner[owner] = by_owner.get(owner, 0) + 8  # miss flag bytes
            else:
                chunk.last_used = now
                chunk.used = True
                owner = chunk.owner_node
                by_owner[owner] = by_owner.get(owner, 0) + hi - lo
        n_hits = len(pieces) - len(missing)
        self.n_hits += n_hits
        if by_owner:
            yield self.network.transfer_all(
                [(owner, from_node, 64 + nbytes) for owner, nbytes in sorted(by_owner.items())],
                name="mc-get",
            )
        return missing, n_hits

    def multiput(
        self,
        file_name: str,
        segments,
        from_node: int,
        cycle_id: int = 0,
        job_id: Optional[int] = None,
        dirty: bool = False,
    ) -> Generator:
        """Batched put of byte segments of one file: one payload message
        per owner node.

        ``segments`` is [(offset, length), ...].  With ``dirty`` each
        chunk piece is write data, marked dirty with its byte extent;
        otherwise every covered chunk is stored whole (prefetched data).
        """
        pieces = self._pieces((off, off + n) for off, n in segments)
        self.n_puts += len(pieces)
        yield self.sim.timeout(CACHE_OP_CPU_S + 1e-6 * len(pieces))
        cb = self.chunk_bytes
        ring = self._ring
        by_owner: dict[int, int] = {}
        for idx, lo, hi in pieces:
            owner = ring[idx % len(ring)]
            by_owner[owner] = by_owner.get(owner, 0) + (hi - lo if dirty else cb)
        if by_owner:
            yield self.network.transfer_all(
                [(from_node, owner, 64 + nbytes) for owner, nbytes in sorted(by_owner.items())],
                name="mc-put",
            )
        self._store(file_name, pieces, cycle_id, job_id, dirty)

    def _drop(self, chunks: dict[int, CachedChunk], index: int) -> None:
        """Remove a resident chunk, releasing its budget charge."""
        chunk = chunks.pop(index)
        if self.budget is not None:
            self.budget.release(
                self.chunk_bytes, job_id=chunk.job_id, node=chunk.owner_node
            )

    def _drop_where(self, doomed: Callable[[CachedChunk], bool]) -> int:
        """Drop every resident chunk ``doomed`` selects; returns the count."""
        victims = [
            (chunks, idx)
            for chunks in self._files.values()
            for idx, c in chunks.items()
            if doomed(c)
        ]
        for chunks, idx in victims:
            self._drop(chunks, idx)
        return len(victims)

    def _store(
        self,
        file_name: str,
        pieces: list[tuple[int, int, int]],
        cycle_id: int,
        job_id: Optional[int],
        dirty: bool,
    ) -> None:
        """Insert or refresh each piece's chunk, placed on the ring as it
        is now; with ``dirty`` the piece's ``(lo, hi)`` is a dirty extent."""
        chunks = self._files.setdefault(file_name, {})
        ring = self._ring
        budget = self.budget
        cb = self.chunk_bytes
        now = self.sim.now
        for idx, lo, hi in pieces:
            chunk = chunks.get(idx)
            if chunk is None:
                owner = ring[idx % len(ring)]
                if budget is not None:
                    if not dirty:
                        # Speculative prefetch: shed at the cap rather than
                        # growing without bound.
                        if not budget.try_charge(cb, job_id=job_id, node=owner):
                            continue
                    else:
                        # Dirty data is never refused -- dropping it would
                        # silently lose committed application writes.
                        budget.charge(cb, job_id=job_id, node=owner)
                chunk = CachedChunk(file_name, idx, owner, now, cycle_id, job_id=job_id)
                chunks[idx] = chunk
            else:
                chunk.last_used = now
                chunk.cycle_id = cycle_id
            if job_id is not None:
                if budget is not None and chunk.job_id is not None and chunk.job_id != job_id:
                    # Ownership handover: move the charge between job ledgers.
                    budget.release(cb, job_id=chunk.job_id)
                    budget.charge(cb, job_id=job_id)
                chunk.job_id = job_id
            if dirty:
                chunk.dirty = True
                # Append is O(1); BTIO-style programs write thousands of tiny
                # ranges per chunk, so merging on every insert would go
                # quadratic.  Compact periodically; writeback coalesces anyway.
                ranges = chunk.dirty_ranges
                ranges.append(Segment(lo, hi - lo))  # simlint: ignore[SL007] cache-owned payload
                if len(ranges) >= 512:
                    chunk.dirty_ranges = coalesce_segments(ranges)

    # ------------------------------------------------------------- lifecycle

    def dirty_chunks(self, job_id: Optional[int] = None) -> list[CachedChunk]:
        return [
            c
            for c in self._resident()
            if c.dirty and (job_id is None or c.job_id == job_id)
        ]

    def clean(self, file_name: str, index: int) -> None:
        c = self._files.get(file_name, {}).get(index)
        if c is not None:
            c.dirty = False
            c.dirty_ranges = []

    def misprefetch_stats(self, job_id: int, cycle_id: int) -> tuple[int, int]:
        """(unused, total) prefetched chunks of a given job cycle."""
        total = 0
        unused = 0
        for c in self._resident():
            if c.job_id == job_id and c.cycle_id == cycle_id and not c.dirty:
                total += 1
                if not c.used:
                    unused += 1
        return unused, total

    def purge_unused(self, job_id: int, cycle_id: int) -> int:
        """Evict unused prefetched chunks of a finished cycle; returns count."""
        n = self._drop_where(
            lambda c: c.job_id == job_id and c.cycle_id == cycle_id and not (c.used or c.dirty)
        )
        self.n_evictions += n
        return n

    def purge_job(self, job_id: int) -> int:
        return self._drop_where(lambda c: c.job_id == job_id)

    @property
    def hit_ratio(self) -> float:
        return self.n_hits / self.n_gets if self.n_gets else 0.0
