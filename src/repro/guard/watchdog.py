"""Stall watchdog: a sim-kernel-level deadlock and no-progress detector.

A daemon ticks every ``watchdog_interval_s`` of simulated time and looks
at every tracked process's *wait target* (the event its generator is
currently suspended on).  A process is **stalled** when it has been
waiting on the *same* untriggered, non-time-driven event for at least
``stall_window_s``; timeouts and time-bounded combinators never stall
(time always delivers them).  Two report kinds:

- ``deadlock`` -- every live non-daemon tracked process is stalled: no
  event in the system can ever resume them (classic circular resource
  wait, a lost wakeup, an event nobody will succeed);
- ``stall`` -- some but not all processes are stalled: suspicious, but
  the rest of the system is still making progress.

The watchdog is purely observational: it never intervenes, it only
appends :class:`WatchdogReport` objects (with a rendered diagnostic
table naming blocked processes, the events they wait on, and the
resources they hold) to :attr:`StallWatchdog.reports`.

Process and resource tracking piggybacks on the same hook points the
sanitizer uses (``Process.__init__``, resource request/acquire/release),
all gated on ``sim._watchdog is not None`` so unguarded runs pay one
attribute load.  Only processes created *after* installation are
tracked.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator, Optional

from repro.sim import Process, Simulator, Timeout

__all__ = ["BlockedProcess", "StallWatchdog", "WatchdogReport"]


@dataclass(frozen=True)
class BlockedProcess:
    """One stalled process's row in the diagnostic table."""

    name: str
    daemon: bool
    #: Description of the event the process is waiting on.
    waiting_on: str
    #: Simulated time at which the wait was first observed.
    since: float
    #: Descriptions of the resources the process currently holds.
    held: tuple[str, ...] = ()


@dataclass(frozen=True)
class WatchdogReport:
    """One firing of the watchdog."""

    time: float
    kind: str  # 'deadlock' | 'stall'
    blocked: tuple[BlockedProcess, ...] = field(default_factory=tuple)

    def render(self) -> str:
        """The human-readable diagnostic table."""
        lines = [
            f"watchdog {self.kind} at t={self.time:.3f}s: "
            f"{len(self.blocked)} process(es) blocked"
        ]
        name_w = max([len(b.name) for b in self.blocked] + [7])
        wait_w = max([len(b.waiting_on) for b in self.blocked] + [10])
        lines.append(
            f"  {'process':<{name_w}}  {'waiting on':<{wait_w}}  "
            f"{'since':>9}  holds"
        )
        for b in self.blocked:
            held = ", ".join(b.held) if b.held else "-"
            tag = " (daemon)" if b.daemon else ""
            lines.append(
                f"  {b.name:<{name_w}}  {b.waiting_on:<{wait_w}}  "
                f"{b.since:>9.3f}  {held}{tag}"
            )
        return "\n".join(lines)


class StallWatchdog:
    """The detector daemon; installs itself as ``sim._watchdog``."""

    def __init__(
        self,
        sim: Simulator,
        interval_s: float = 1.0,
        stall_window_s: float = 5.0,
        registry: Optional[Any] = None,
        tracer: Optional[Any] = None,
    ) -> None:
        if interval_s <= 0 or stall_window_s <= 0:
            raise ValueError("watchdog windows must be positive")
        if sim._watchdog is not None:
            raise ValueError("simulator already has a watchdog")
        self.sim = sim
        self.interval_s = interval_s
        self.stall_window_s = stall_window_s
        self.reports: list[WatchdogReport] = []
        self.n_ticks = 0
        self._procs: list[Process] = []
        #: id(proc) -> (target event, first time it was seen as target)
        self._since: dict[int, tuple[Any, float]] = {}
        #: id(request) -> (resource, requesting process, request) while queued
        self._requested: dict[int, tuple[Any, Optional[Process], Any]] = {}
        #: id(request) -> (resource, owning process, request) while granted
        self._granted: dict[int, tuple[Any, Optional[Process], Any]] = {}
        #: id(resource) -> (stable index, resource) for naming
        self._res_index: dict[int, tuple[int, Any]] = {}
        #: Signature of the last report, to avoid re-reporting each tick.
        self._last_sig: Optional[tuple] = None
        self._tracer = tracer
        if registry is not None:
            registry.view("guard.watchdog.reports", "counter", lambda: len(self.reports))
            registry.view(
                "guard.watchdog.deadlocks", "counter", lambda: len(self.deadlocks)
            )
        sim._watchdog = self
        self._proc = sim.process(self._run(), name="guard-watchdog", daemon=True)

    # -- kernel hooks ----------------------------------------------------

    def on_process_created(self, proc: Process) -> None:
        self._procs.append(proc)

    def on_request(self, resource: Any, request: Any) -> None:
        self._requested[id(request)] = (resource, self.sim.active_process, request)

    def on_acquire(self, resource: Any, request: Any) -> None:
        entry = self._requested.pop(id(request), None)
        owner = entry[1] if entry is not None else self.sim.active_process
        self._granted[id(request)] = (resource, owner, request)

    def on_release(self, resource: Any, request: Any) -> None:
        self._requested.pop(id(request), None)
        self._granted.pop(id(request), None)

    # -- description helpers ---------------------------------------------

    def _resource_name(self, resource: Any) -> str:
        entry = self._res_index.get(id(resource))
        if entry is None:
            entry = (len(self._res_index), resource)
            self._res_index[id(resource)] = entry
        return f"{type(resource).__name__}#{entry[0]}"

    def _describe_target(self, ev: Any) -> str:
        res = getattr(ev, "resource", None)
        if res is not None:
            return f"request({self._resource_name(res)})"
        return type(ev).__name__

    def _held_by(self, proc: Process) -> tuple[str, ...]:
        held = []
        for _rid, (resource, owner, _req) in self._granted.items():
            if owner is proc:
                held.append(self._resource_name(resource))
        return tuple(held)

    # -- the detector -----------------------------------------------------

    def _run(self) -> Iterator[Any]:
        sim = self.sim
        while True:
            yield sim.timeout(self.interval_s)
            self._tick()

    def _tick(self) -> None:
        now = self.sim.now
        self.n_ticks += 1
        alive = []
        for p in self._procs:
            if p.is_alive:
                alive.append(p)
            else:
                self._since.pop(id(p), None)
        self._procs = alive
        stalled: list[tuple[Process, Any, float]] = []
        for p in alive:
            if p is self._proc:
                continue
            tgt = p._target
            if tgt is None or isinstance(tgt, Timeout) or tgt.triggered:
                self._since.pop(id(p), None)
                continue
            prev = self._since.get(id(p))
            if prev is None or prev[0] is not tgt:
                self._since[id(p)] = (tgt, now)
                continue
            if now - prev[1] >= self.stall_window_s:
                stalled.append((p, tgt, prev[1]))
        if not stalled:
            self._last_sig = None
            return
        live_foreground = [p for p in alive if not p.daemon and p is not self._proc]
        stalled_foreground = [s for s in stalled if not s[0].daemon]
        # Deadlock: every foreground process waits on an event that only
        # another waiter could ever trigger -- nothing time-driven remains
        # that can resume any of them.
        kind = (
            "deadlock"
            if live_foreground and len(stalled_foreground) == len(live_foreground)
            else "stall"
        )
        sig = (kind, tuple(s[0].name for s in stalled))
        if sig == self._last_sig:
            return
        self._last_sig = sig
        blocked = tuple(
            BlockedProcess(
                name=p.name,
                daemon=p.daemon,
                waiting_on=self._describe_target(tgt),
                since=since,
                held=self._held_by(p),
            )
            for p, tgt, since in stalled
        )
        report = WatchdogReport(time=now, kind=kind, blocked=blocked)
        self.reports.append(report)
        if self._tracer is not None:
            self._tracer.instant(
                "guard.watchdog",
                track="guard",
                cat="guard",
                kind=kind,
                blocked=len(blocked),
            )

    # ------------------------------------------------------------------

    @property
    def deadlocks(self) -> list[WatchdogReport]:
        return [r for r in self.reports if r.kind == "deadlock"]

    def summary(self) -> dict:
        return {
            "n_ticks": self.n_ticks,
            "n_reports": len(self.reports),
            "n_deadlocks": len(self.deadlocks),
        }
