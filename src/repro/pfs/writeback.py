"""Server-side write-back caching with a periodic flusher.

The paper's testbed note: "For write tests, we force dirty pages being
written back every one second on each data server."  With write-back
enabled, a write request completes once the data is in the server's
memory; a flusher daemon wakes every ``flush_interval_s``, collects the
dirty ranges, sorts them, and submits them to the block layer as one
async batch -- the kernel's own little request scheduler.

Disabled by default (``ClusterSpec.server_writeback_interval_s=None``):
write-through matches the calibration in DESIGN.md §5, and the ablation
bench quantifies what the kernel flusher changes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.extents import ExtentMap
from repro.sim import Simulator, all_of

if TYPE_CHECKING:  # pragma: no cover
    from repro.pfs.dataserver import DataServer

__all__ = ["WritebackBuffer"]


class WritebackBuffer:
    """Per-server dirty-range buffer plus the flusher daemon."""

    def __init__(
        self,
        sim: Simulator,
        server: "DataServer",
        flush_interval_s: float = 1.0,
        max_dirty_bytes: int = 64 * 1024 * 1024,
    ):
        if flush_interval_s <= 0:
            raise ValueError("flush interval must be positive")
        if max_dirty_bytes <= 0:
            raise ValueError("max_dirty_bytes must be positive")
        self.sim = sim
        self.server = server
        self.flush_interval_s = flush_interval_s
        self.max_dirty_bytes = max_dirty_bytes
        #: file -> dirty [start, end) object ranges
        self._dirty: dict[str, ExtentMap] = {}
        self.dirty_bytes = 0
        self.n_flushes = 0
        self.flushed_bytes = 0
        #: Guard memory budget (repro.guard.MemoryBudget) when a safety
        #: governor is attached; None nominally.  The dirty backlog is
        #: charged against this server's node, and reaching the node cap
        #: paces the flusher early (backpressure instead of growth).
        self.budget = None
        self._flush_gate = None
        self._proc = sim.process(
            self._flusher(), name=f"wb-{server.server_index}", daemon=True
        )

    # ------------------------------------------------------------------

    def add(self, file_name: str, offset: int, length: int) -> None:
        """Record a dirty object range (the write has landed in RAM)."""
        if length <= 0:
            return
        ivs = self._dirty.get(file_name)
        if ivs is None:
            ivs = self._dirty[file_name] = ExtentMap()
        delta = ivs.add(offset, offset + length)[2]
        self.dirty_bytes += delta
        budget = self.budget
        if budget is not None and delta > 0:
            budget.charge(delta, node=self.server.node_id)
        kick = self.dirty_bytes >= self.max_dirty_bytes
        if not kick and budget is not None and budget.node_over(self.server.node_id):
            # Node-level cap reached: pace the writeback ahead of schedule.
            kick = True
            budget.record_paced()
        if kick and self._flush_gate is not None:
            # Memory pressure: kick the flusher early.
            gate, self._flush_gate = self._flush_gate, None
            if not gate.triggered:
                gate.succeed()

    @property
    def over_limit(self) -> bool:
        return self.dirty_bytes >= self.max_dirty_bytes

    def drop_all(self) -> int:
        """Discard every dirty range (server crash: RAM contents are
        gone).  Returns the number of bytes lost."""
        lost = self.dirty_bytes
        self._dirty = {}
        self.dirty_bytes = 0
        if self.budget is not None and lost:
            self.budget.release(lost, node=self.server.node_id)
        return lost

    def covers(self, file_name: str, offset: int, length: int) -> bool:
        """Is [offset, offset+length) fully dirty (servable from RAM)?"""
        ivs = self._dirty.get(file_name)
        if ivs is None:
            return length <= 0
        return ivs.covers(offset, offset + length)

    # ------------------------------------------------------------------

    def _flusher(self):
        sim = self.sim
        from repro.sim import any_of

        while True:
            self._flush_gate = sim.event()
            yield any_of(sim, [sim.timeout(self.flush_interval_s), self._flush_gate])
            self._flush_gate = None
            yield from self.flush()

    def flush(self):
        """Write every dirty range back, sorted, as one async batch."""
        if not self._dirty:
            return
        batch, self._dirty = self._dirty, {}
        flushed = self.dirty_bytes
        self.dirty_bytes = 0
        if self.budget is not None and flushed:
            self.budget.release(flushed, node=self.server.node_id)
        from repro.pfs.dataserver import ServerRequest

        completions = []
        for file_name in sorted(batch):
            for s, e in batch[file_name]:
                if self.server.crashed:
                    # The server died mid-flush: the rest of the batch is
                    # lost with the RAM it lived in.
                    return
                req = ServerRequest(
                    file_name=file_name,
                    object_offset=s,
                    length=e - s,
                    op="W",
                    stream_id=0,
                )
                reqs = yield from self.server._submit_blocks_throttled(
                    req, is_async=True
                )
                completions.extend(reqs)
        self.n_flushes += 1
        self.flushed_bytes += flushed
        if completions:
            yield all_of(self.sim, completions)
