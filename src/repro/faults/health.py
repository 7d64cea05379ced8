"""Metadata-server-driven data-server health state.

PVFS2 clients learn which servers exist from the metadata server; here
the same channel carries liveness.  The injector marks servers
``up``/``slow``/``down`` as it applies and reverts faults, the
:class:`~repro.pfs.metaserver.MetadataServer` exposes the map (its
``health`` attribute), and fault-aware PFS clients consult it before
dispatching: a request to a ``down`` server parks on that server's
recovery event instead of burning its retry budget against a black hole.

State changes are instantaneous metadata (no simulated RPC) -- the paper
stack already models metadata traffic separately and the interesting
dynamics live in the data path.  When observability is on, each server's
state is readable as a ``faults.ds{i}.health`` gauge (1 up / 0.5 slow /
0 down).
"""

from __future__ import annotations

from types import MappingProxyType
from typing import TYPE_CHECKING, Mapping

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.core import Event, Simulator

__all__ = ["ServerHealth"]

_GAUGE_VALUE: Mapping[str, float] = MappingProxyType(
    {"up": 1.0, "slow": 0.5, "down": 0.0}
)


class ServerHealth:
    """Per-data-server liveness map with recovery events."""

    UP = "up"
    SLOW = "slow"
    DOWN = "down"

    def __init__(self, sim: "Simulator", n_servers: int) -> None:
        self.sim = sim
        self.n_servers = n_servers
        self._state = ["up"] * n_servers
        #: server index -> event fired on the next down->up transition.
        self._recovery: dict[int, "Event"] = {}
        #: (sim_time, server, new_state) history, always recorded.
        self.transitions: list[tuple[float, int, str]] = []
        if sim.obs is not None:
            for i in range(n_servers):
                sim.obs.registry.view(
                    f"faults.ds{i}.health",
                    "gauge",
                    lambda i=i: _GAUGE_VALUE[self._state[i]],
                )

    def state_of(self, server: int) -> str:
        return self._state[server]

    def is_up(self, server: int) -> bool:
        """True unless the server is down (slow still serves requests)."""
        return self._state[server] != "down"

    def live_servers(self) -> list[int]:
        """Indices of servers currently accepting requests, ascending."""
        return [i for i in range(self.n_servers) if self._state[i] != "down"]

    def mark(self, server: int, state: str) -> None:
        """Record a state transition, firing recovery waiters on down->up."""
        if state not in _GAUGE_VALUE:
            raise ValueError(f"unknown health state {state!r}")
        old = self._state[server]
        if old == state:
            return
        self._state[server] = state
        self.transitions.append((self.sim.now, server, state))
        if old == "down":
            ev = self._recovery.pop(server, None)
            if ev is not None:
                ev.succeed(self.sim.now)

    def recovery_event(self, server: int) -> "Event":
        """An event that fires when ``server`` next returns from down.

        Already-up servers yield an immediately triggered event, so
        callers can wait unconditionally.
        """
        ev = self._recovery.get(server)
        if ev is None:
            ev = self.sim.event()
            if self._state[server] != "down":
                ev.succeed(self.sim.now)
            else:
                self._recovery[server] = ev
        return ev
