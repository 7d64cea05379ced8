"""The fault-injector daemon: applies a :class:`FaultPlan` to a cluster.

One daemon process walks the plan's events in ``(at_s, index)`` order and
flips the matching component state on apply/revert:

- ``disk_failslow``  -- installs a :class:`~repro.faults.plan.DiskFault`
  on the server's drive;
- ``server_crash``   -- :meth:`DataServer.crash` (drops in-flight work,
  loses page cache and dirty writeback state) and later
  :meth:`DataServer.recover`;
- ``net_degrade``    -- extra Ethernet latency plus seeded jitter on
  every non-loopback transfer;
- ``net_partition``  -- transfers crossing the cut wait on the heal
  event (transit stalls rather than erroring, like a pulled cable);
- ``cache_evict``    -- Memcached nodes leave the ring (clean chunks
  evicted, dirty chunk ownership migrated) and later rejoin.

Determinism: the injector owns a private ``random.Random(plan.seed)``
(used only for network jitter), every schedule entry is pinned to sim
time, and ``install()`` is a complete no-op for an empty plan -- so a
run without faults is bit-identical to a run without the subsystem.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Any, Optional

from repro.faults.health import ServerHealth
from repro.faults.plan import DiskFault, FaultEvent, FaultPlan

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.builder import Cluster

__all__ = ["FaultError", "FaultInjector", "NetFault", "RequestTimeout"]


class FaultError(Exception):
    """A fault plan could not be applied to this cluster."""


class RequestTimeout(FaultError):
    """A PFS request exhausted its retry budget."""


class NetFault:
    """Mutable network-degradation state consulted by ``Network.transfer``.

    ``gate`` runs at the head of every non-loopback transfer: it first
    waits out any partition separating the endpoints, then serves the
    configured extra latency and seeded jitter.  Nominally the network's
    ``fault`` attribute is ``None`` and none of this code runs.
    """

    def __init__(self, sim: Any, rng: random.Random) -> None:
        self.sim = sim
        self._rng = rng
        self.extra_latency_s = 0.0
        self.jitter_s = 0.0
        #: Node ids on the far side of the current cut (empty = none).
        self._cut: frozenset[int] = frozenset()
        self._heal_event: Optional[Any] = None
        self.n_delayed = 0
        self.n_blocked = 0

    def partition(self, nodes: tuple[int, ...]) -> None:
        if self._cut:
            raise FaultError("a partition is already in effect")
        self._cut = frozenset(nodes)
        self._heal_event = self.sim.event()

    def heal(self) -> None:
        self._cut = frozenset()
        ev, self._heal_event = self._heal_event, None
        if ev is not None:
            ev.succeed(self.sim.now)

    def crosses_cut(self, src: int, dst: int) -> bool:
        return (src in self._cut) != (dst in self._cut)

    def gate(self, src: int, dst: int) -> Any:
        """Generator delegated to by ``Network.transfer``."""
        while self.crosses_cut(src, dst):
            self.n_blocked += 1
            yield self._heal_event
        delay = self.extra_latency_s
        if self.jitter_s > 0.0:
            delay += self._rng.random() * self.jitter_s
        if delay > 0.0:
            self.n_delayed += 1
            yield self.sim.timeout(delay)


class FaultInjector:
    """Drives a :class:`FaultPlan` against a built cluster."""

    def __init__(
        self,
        cluster: "Cluster",
        plan: FaultPlan,
        runtime: Any = None,
        dualpar: Any = None,
    ) -> None:
        self.cluster = cluster
        self.plan = plan
        self.runtime = runtime
        self.dualpar = dualpar
        self.sim = cluster.sim
        self.rng = random.Random(plan.seed)
        self.retry = plan.retry
        self.health: Optional[ServerHealth] = None
        self.net_fault: Optional[NetFault] = None
        #: (sim_time, kind, phase, target) for every applied transition.
        self.log: list[tuple[float, str, str, int]] = []
        self.n_timeouts = 0
        self._installed = False
        self._req_counter = 0
        obs = self.sim.obs
        if obs is not None:
            reg = obs.registry
            reg.view("faults.events", "counter", lambda: len(self.log))
            reg.view(
                "faults.log",
                "event_log",
                lambda: {"fields": ["t", "kind", "phase", "target"], "n": len(self.log)},
            )
            self._tracer = obs.tracer
        else:
            self._tracer = None
        #: event index -> open async span for windowed faults.
        self._spans: dict[int, Any] = {}
        self._validate()

    # -- plan validation against the actual cluster ----------------------

    def _validate(self) -> None:
        spec = self.cluster.spec
        n_ds = len(self.cluster.data_servers)
        for ev in self.plan.events:
            if ev.kind in ("disk_failslow", "server_crash"):
                if ev.target >= n_ds:
                    raise FaultError(
                        f"{ev.kind} targets server {ev.target} but the cluster "
                        f"has {n_ds} data servers"
                    )
            if ev.kind == "cache_evict":
                for node in ev.evicted_nodes:
                    if node >= spec.n_compute_nodes:
                        raise FaultError(
                            f"cache_evict node {node} is not a compute node "
                            f"(cluster has {spec.n_compute_nodes})"
                        )
            if ev.kind == "net_partition":
                for node in ev.nodes:
                    if node >= spec.n_nodes:
                        raise FaultError(
                            f"net_partition node {node} out of range for "
                            f"{spec.n_nodes}-node cluster"
                        )

    # -- request ids (exactly-once write accounting) ---------------------

    def next_request_id(self) -> int:
        self._req_counter += 1
        return self._req_counter

    def record_timeout(self, server_index: int) -> None:
        self.n_timeouts += 1
        if self._tracer is not None:
            self._tracer.instant(
                "faults.timeout", track="faults", cat="fault", server=server_index
            )

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Arm the injector.  A plan with no events installs nothing at
        all, keeping nominal runs bit-identical to pre-fault builds."""
        if self._installed:
            raise FaultError("injector already installed")
        self._installed = True
        if not self.plan.events:
            return
        self.health = ServerHealth(self.sim, len(self.cluster.data_servers))
        self.net_fault = NetFault(self.sim, self.rng)
        self.cluster.network.fault = self.net_fault
        for client in self.cluster.clients:
            client.faults = self
        for ds in self.cluster.data_servers:
            ds.enable_fault_tracking()
        if self.dualpar is not None:
            self.dualpar.faults = self
            self.dualpar.health = self.health
        self.sim.process(self._run(), name="fault-injector", daemon=True)

    def _run(self) -> Any:
        # Phase order breaks same-time ties: reverts land before applies
        # so a back-to-back window sequence on one target is well formed.
        schedule: list[tuple[float, int, int, str, FaultEvent]] = []
        for i, ev in enumerate(self.plan.events):
            schedule.append((ev.at_s, 1, i, "apply", ev))
            if ev.until_s is not None:
                schedule.append((ev.until_s, 0, i, "revert", ev))
        schedule.sort(key=lambda e: (e[0], e[1], e[2]))
        sim = self.sim
        for at_s, _order, idx, phase, ev in schedule:
            if at_s > sim.now:
                yield sim.timeout(at_s - sim.now)
            self._record(ev, phase, idx)
            self._dispatch(ev, phase)

    def _record(self, ev: FaultEvent, phase: str, idx: int) -> None:
        now = self.sim.now
        self.log.append((now, ev.kind, phase, ev.target))
        if self._tracer is not None:
            if phase == "apply" and ev.until_s is not None:
                span = self._tracer.span(
                    f"fault.{ev.kind}",
                    track="faults",
                    cat="fault",
                    async_=True,
                    target=ev.target,
                )
                span.__enter__()
                self._spans[idx] = span
            elif phase == "revert":
                span = self._spans.pop(idx, None)
                if span is not None:
                    span.__exit__(None, None, None)
            else:
                self._tracer.instant(
                    f"fault.{ev.kind}", track="faults", cat="fault", target=ev.target
                )

    def _dispatch(self, ev: FaultEvent, phase: str) -> None:
        apply = phase == "apply"
        if ev.kind == "disk_failslow":
            self._disk_failslow(ev, apply)
        elif ev.kind == "server_crash":
            self._server_crash(ev, apply)
        elif ev.kind == "net_degrade":
            self._net_degrade(ev, apply)
        elif ev.kind == "net_partition":
            self._net_partition(ev, apply)
        elif ev.kind == "cache_evict":
            self._cache_evict(ev, apply)
        # The safety governor (when attached) reacts after the component
        # state has flipped: crashes/partitions degrade active jobs,
        # cache evictions score against the circuit breaker.
        guard = getattr(self.dualpar, "guard", None) if self.dualpar is not None else None
        if guard is not None:
            guard.on_fault(ev.kind, phase, ev.target)

    # -- per-kind transitions ---------------------------------------------

    def _disk_failslow(self, ev: FaultEvent, apply: bool) -> None:
        fault = (
            DiskFault(transfer_factor=ev.transfer_factor, extra_seek_s=ev.extra_seek_s)
            if apply
            else None
        )
        self.cluster.data_servers[ev.target].device.fault = fault
        assert self.health is not None
        self.health.mark(ev.target, "slow" if apply else "up")

    def _server_crash(self, ev: FaultEvent, apply: bool) -> None:
        ds = self.cluster.data_servers[ev.target]
        assert self.health is not None
        if apply:
            ds.crash()
            self.health.mark(ev.target, "down")
            if self.dualpar is not None:
                self.dualpar.on_server_fault(ev.target)
        else:
            ds.recover()
            self.health.mark(ev.target, "up")

    def _net_degrade(self, ev: FaultEvent, apply: bool) -> None:
        nf = self.net_fault
        assert nf is not None
        nf.extra_latency_s = ev.extra_latency_s if apply else 0.0
        nf.jitter_s = ev.jitter_s if apply else 0.0

    def _net_partition(self, ev: FaultEvent, apply: bool) -> None:
        nf = self.net_fault
        assert nf is not None
        if apply:
            nf.partition(ev.nodes)
        else:
            nf.heal()

    def _cache_evict(self, ev: FaultEvent, apply: bool) -> None:
        cache = getattr(self.runtime, "global_cache", None)
        if cache is None:
            raise FaultError("cache_evict needs a runtime with a global cache")
        for node in ev.evicted_nodes:
            if apply:
                cache.fail_node(node)
                if self.dualpar is not None:
                    self.dualpar.on_compute_node_fault(node)
            else:
                cache.restore_node(node)
