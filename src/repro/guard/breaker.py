"""Circuit breaker over the memcache ring.

The classic three-state breaker, on simulated time:

- **closed** -- cache traffic flows; each batched multi-get's latency is
  scored, and ``breaker_failures`` consecutive slow batches (or external
  failure signals such as a cache-node eviction) trip the breaker;
- **open** -- :meth:`allow` returns False, so the engine's ``do_io``
  bypasses the cache entirely (degraded vanilla path) for
  ``breaker_reset_s`` simulated seconds;
- **half-open** -- exactly one probe operation is let through; a fast
  probe closes the breaker, a slow one re-opens it.

The breaker never schedules events; all state changes happen inside the
calls the engine already makes, so guard-off runs are untouched.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import TYPE_CHECKING, Any, Mapping, Optional

from repro.guard.config import GuardConfig
from repro.sim import Simulator

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.registry import MetricsRegistry

__all__ = ["CircuitBreaker"]

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"

_STATE_LEVEL: Mapping[str, int] = MappingProxyType({CLOSED: 0, HALF_OPEN: 1, OPEN: 2})


class CircuitBreaker:
    """Latency/failure breaker guarding the global cache."""

    def __init__(
        self,
        sim: Simulator,
        config: Optional[GuardConfig] = None,
        registry: Optional["MetricsRegistry"] = None,
        tracer: Optional[Any] = None,
    ) -> None:
        cfg = config or GuardConfig()
        self.sim = sim
        self.failure_threshold = cfg.breaker_failures
        self.latency_threshold_s = cfg.breaker_latency_s
        self.reset_s = cfg.breaker_reset_s
        self.state = CLOSED
        self.consecutive_failures = 0
        self.n_failures = 0
        self.n_trips = 0
        self.n_probes = 0
        self.opened_at = 0.0
        self._probe_inflight = False
        #: (time, new state) history.
        self.transitions: list[tuple[float, str]] = []
        self._tracer = tracer
        if registry is not None:
            registry.view("guard.breaker.trips", "counter", lambda: self.n_trips)
            registry.view(
                "guard.breaker.state", "gauge", lambda: _STATE_LEVEL[self.state]
            )

    # ------------------------------------------------------------------

    def _to(self, state: str) -> None:
        if state == self.state:
            return
        self.state = state
        self.transitions.append((self.sim.now, state))
        if self._tracer is not None:
            self._tracer.instant(
                "guard.breaker", track="guard", cat="guard", state=state
            )

    def _trip(self) -> None:
        self.n_trips += 1
        self.opened_at = self.sim.now
        self.consecutive_failures = 0
        self._probe_inflight = False
        self._to(OPEN)

    # ------------------------------------------------------------------

    def allow(self) -> bool:
        """May a cache operation proceed right now?"""
        if self.state == CLOSED:
            return True
        if self.state == OPEN:
            if self.sim.now - self.opened_at < self.reset_s:
                return False
            self._to(HALF_OPEN)
        # Half-open: admit exactly one in-flight probe.
        if self._probe_inflight:
            return False
        self._probe_inflight = True
        self.n_probes += 1
        return True

    def record(self, latency_s: float) -> None:
        """Score one completed cache batch by its observed latency."""
        ok = latency_s <= self.latency_threshold_s
        if self.state == HALF_OPEN:
            self._probe_inflight = False
            if ok:
                self.consecutive_failures = 0
                self._to(CLOSED)
            else:
                self.n_failures += 1
                self._trip()
            return
        if ok:
            self.consecutive_failures = 0
            return
        self.n_failures += 1
        self.consecutive_failures += 1
        if self.state == CLOSED and self.consecutive_failures >= self.failure_threshold:
            self._trip()

    def record_failure(self) -> None:
        """External failure signal (e.g. a cache node was evicted)."""
        self.record(float("inf"))

    def summary(self) -> dict:
        return {
            "state": self.state,
            "n_trips": self.n_trips,
            "n_failures": self.n_failures,
            "n_probes": self.n_probes,
        }
