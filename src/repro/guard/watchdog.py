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

The alive list and the "holds" column come from the kernel's lifecycle
ledger (:mod:`repro.sim.ledger`), the one the sanitizer reads too.  Only
processes created *after* installation are watched, whether the watchdog
attaches the ledger or finds the sanitizer's; their held slots are
requests they made, hence made after installation too.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator, Optional

from repro.sim import Process, Simulator, Timeout
from repro.sim.ledger import ledger_of

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
    """The detector daemon; installs itself as ``sim.watchdog``."""

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
        if sim.watchdog is not None:
            raise ValueError("simulator already has a watchdog")
        self.sim = sim
        self.ledger = ledger_of(sim)
        self.interval_s = interval_s
        self.stall_window_s = stall_window_s
        self.reports: list[WatchdogReport] = []
        self.n_ticks = 0
        #: waiting process -> (target event, first time it was seen as target)
        self._since: dict[Process, tuple[Any, float]] = {}
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
        sim.watchdog = self
        # Spawned last: the ledger lists processes in creation order, and
        # the ones after this daemon are those the watchdog watches.
        self._proc = sim.process(self._run(), name="guard-watchdog", daemon=True)

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
        return tuple(
            self._resource_name(rec.resource)
            for rec in self.ledger.requests.values()
            if rec.state == "granted" and rec.owner is proc
        )

    # -- the detector -----------------------------------------------------

    def _run(self) -> Iterator[Any]:
        sim = self.sim
        while True:
            yield sim.timeout(self.interval_s)
            self._tick()

    def _tick(self) -> None:
        now = self.sim.now
        self.n_ticks += 1
        # Processes created before installation (cluster daemons spawned
        # before a sanitizer's ledger met this watchdog) are not watched;
        # this daemon is alive, hence in the ledger, while it ticks.
        procs = iter(self.ledger.procs)
        for p in procs:
            if p is self._proc:
                break
        alive = [p for p in procs if p.is_alive]
        since: dict[Process, tuple[Any, float]] = {}
        stalled: list[tuple[Process, Any, float]] = []
        for p in alive:
            tgt = p._target
            if tgt is None or isinstance(tgt, Timeout) or tgt.triggered:
                continue
            prev = self._since.get(p)
            if prev is None or prev[0] is not tgt:
                prev = (tgt, now)
            since[p] = prev
            if now - prev[1] >= self.stall_window_s:
                stalled.append((p, tgt, prev[1]))
        self._since = since
        if not stalled:
            self._last_sig = None
            return
        live_foreground = [p for p in alive if not p.daemon]
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
