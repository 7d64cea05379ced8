"""Memory budget accounting: per-job and per-node residency caps.

One :class:`MemoryBudget` per governed run, charged from three places:

- ``cache/memcache.py`` charges each newly resident chunk against the
  chunk's job and its owner node, releasing on every eviction path;
- ``core/crm.py`` and ``core/pec.py`` consult the remaining job headroom
  *before* prefetching, shedding the tail of a plan (lowest priority:
  the furthest-ahead predictions) rather than overfilling;
- ``pfs/writeback.py`` charges a server's dirty backlog against its node
  and paces the flusher early when the node cap is reached.

Dirty data is **always** accepted (``charge``): refusing it would drop
committed application writes.  Only speculative prefetch goes through
``try_charge`` and can be shed.  The cap is therefore a firm bound on
speculative residency and a backpressure signal for everything else.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.guard.config import GuardConfig

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.registry import MetricsRegistry

__all__ = ["MemoryBudget"]


class MemoryBudget:
    """Byte accountant with per-job and per-node hard caps."""

    def __init__(
        self,
        config: Optional[GuardConfig] = None,
        registry: Optional["MetricsRegistry"] = None,
    ) -> None:
        cfg = config or GuardConfig()
        self.job_cap_bytes = cfg.job_cap_bytes
        self.node_cap_bytes = cfg.node_cap_bytes
        self._by_job: dict[int, int] = {}
        self._by_node: dict[int, int] = {}
        self._job_peak: dict[int, int] = {}
        self.total_bytes = 0
        self.peak_bytes = 0
        #: Prefetched chunks dropped at the cache insert point (cap hit).
        self.n_shed_store = 0
        #: Chunks cut from CRM prefetch plans before any I/O was issued.
        self.n_shed_plan = 0
        #: Ghost pre-executions whose recording depth was clamped.
        self.n_blocked = 0
        #: Early writeback flushes forced by the node cap.
        self.n_paced = 0
        if registry is not None:
            pre = "guard.budget"
            registry.view(f"{pre}.bytes", "gauge", lambda: self.total_bytes)
            registry.view(f"{pre}.peak_bytes", "gauge", lambda: self.peak_bytes)
            registry.view(f"{pre}.shed_store", "counter", lambda: self.n_shed_store)
            registry.view(f"{pre}.shed_plan", "counter", lambda: self.n_shed_plan)
            registry.view(f"{pre}.blocked", "counter", lambda: self.n_blocked)
            registry.view(f"{pre}.paced", "counter", lambda: self.n_paced)

    # -- queries ---------------------------------------------------------

    def job_used(self, job_id: int) -> int:
        return self._by_job.get(job_id, 0)

    def node_used(self, node: int) -> int:
        return self._by_node.get(node, 0)

    def job_peak(self, job_id: int) -> int:
        return self._job_peak.get(job_id, 0)

    def job_headroom(self, job_id: int) -> int:
        return max(self.job_cap_bytes - self.job_used(job_id), 0)

    def node_over(self, node: int) -> bool:
        return self.node_used(node) >= self.node_cap_bytes

    # -- accounting ------------------------------------------------------

    def _apply(self, nbytes: int, job_id: Optional[int], node: Optional[int]) -> None:
        self.total_bytes += nbytes
        if self.total_bytes > self.peak_bytes:
            self.peak_bytes = self.total_bytes
        if job_id is not None:
            used = self._by_job.get(job_id, 0) + nbytes
            self._by_job[job_id] = used
            if used > self._job_peak.get(job_id, 0):
                self._job_peak[job_id] = used
        if node is not None:
            self._by_node[node] = self._by_node.get(node, 0) + nbytes

    def charge(
        self, nbytes: int, job_id: Optional[int] = None, node: Optional[int] = None
    ) -> None:
        """Unconditional charge (dirty data: must never be refused)."""
        if nbytes <= 0:
            return
        self._apply(nbytes, job_id, node)

    def try_charge(
        self, nbytes: int, job_id: Optional[int] = None, node: Optional[int] = None
    ) -> bool:
        """Charge speculative residency; False (and no charge) at a cap."""
        if nbytes <= 0:
            return True
        if job_id is not None and self.job_used(job_id) + nbytes > self.job_cap_bytes:
            self.record_shed_store()
            return False
        if node is not None and self.node_used(node) + nbytes > self.node_cap_bytes:
            self.record_shed_store()
            return False
        self._apply(nbytes, job_id, node)
        return True

    def release(
        self, nbytes: int, job_id: Optional[int] = None, node: Optional[int] = None
    ) -> None:
        if nbytes <= 0:
            return
        self._apply(-nbytes, job_id, node)

    def transfer_node(self, nbytes: int, src: int, dst: int) -> None:
        """Move accounted bytes between nodes (cache chunk migration)."""
        if nbytes <= 0 or src == dst:
            return
        self._by_node[src] = self._by_node.get(src, 0) - nbytes
        self._by_node[dst] = self._by_node.get(dst, 0) + nbytes

    # -- backpressure counters ------------------------------------------

    def record_shed_store(self, n: int = 1) -> None:
        self.n_shed_store += n

    def record_shed_plan(self, n: int = 1) -> None:
        self.n_shed_plan += n

    def record_blocked(self, n: int = 1) -> None:
        self.n_blocked += n

    def record_paced(self, n: int = 1) -> None:
        self.n_paced += n

    def summary(self) -> dict:
        return {
            "peak_bytes": self.peak_bytes,
            "total_bytes": self.total_bytes,
            "n_shed_store": self.n_shed_store,
            "n_shed_plan": self.n_shed_plan,
            "n_blocked": self.n_blocked,
            "n_paced": self.n_paced,
        }
