"""SimSanitizer: opt-in runtime invariant checker for the event kernel.

Static lint (``simlint``) catches hazard *patterns*; the sanitizer
catches hazard *instances* while a simulation runs.  Enable it with
``REPRO_SANITIZE=1`` in the environment, ``Simulator(sanitize=True)``,
or the ``--sanitize`` CLI flag.  Checks:

- **event-time monotonicity** -- the dispatch clock never moves
  backwards and no event carries a negative timestamp;
- **schedule-key ordering** -- every dispatched ``(time, priority,
  sequence)`` key is strictly greater than the previous one.  A recycled
  event re-queued with a stale sequence number (the exact class of bug a
  free-list pool can introduce) breaks this immediately, because tie
  order would then depend on pool state rather than trigger order;
- **double dispatch** -- an event popped from the schedule twice
  (aliased heap entries) is reported at the second pop;
- **process lifecycle** -- non-daemon processes still alive when the
  schedule drains are leaks (deadlocked or forgotten); reported with
  their names;
- **resource ownership** -- every granted :class:`~repro.sim.resources.
  Resource` slot is attributed to its owning process; a double release or
  a slot still held at drain time is reported *with attribution* (who
  acquired it, when, and who released it first);
- **fault-injection lifecycle** -- components (e.g. crashed data
  servers) register and unregister themselves; a resurrection that
  registers twice, an unregister of an unknown component, or a crashed
  server dispatching new work is reported immediately.

All violations raise :class:`SanitizerError` (a
:class:`~repro.sim.core.SimulationError`), so an unsanitized run and a
sanitized run of a correct simulation produce identical results -- the
sanitizer only observes, it never perturbs scheduling.  The process and
request bookkeeping behind the lifecycle checks is the kernel's ledger
(:mod:`repro.sim.ledger`), which the sanitizer attaches and reads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.sim.core import SimulationError
from repro.sim.ledger import ledger_of

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.core import Event, Simulator
    from repro.sim.ledger import RequestRecord

__all__ = ["SanitizerError", "SimSanitizer"]

#: Cap on the number of leaks enumerated in one error message.
_REPORT_LIMIT = 8


class SanitizerError(SimulationError):
    """A simulation invariant was violated (only raised when sanitizing)."""


def _describe(rec: "RequestRecord") -> str:
    owner = rec.owner
    who = owner.name if owner is not None else "<no active process>"
    when = (
        f"granted at t={rec.granted_at:.6g}"
        if rec.granted_at is not None
        else f"requested at t={rec.requested_at:.6g}"
    )
    return f"{_describe_resource(rec.resource)} held by {who!r} ({when})"


def _describe_resource(resource: Any) -> str:
    cap = getattr(resource, "capacity", None)
    name = type(resource).__name__
    return f"{name}(capacity={cap})" if cap is not None else name


@dataclass
class SanitizerStats:
    """Counters exposed for introspection and tests."""

    n_events: int = 0
    n_ties: int = 0
    leaked_processes: list[str] = field(default_factory=list)
    leaked_requests: list[str] = field(default_factory=list)


class SimSanitizer:
    """Runtime checker attached to one :class:`Simulator`.

    The simulator calls :meth:`on_dispatch` for every event it pops and
    :meth:`on_quiescent` when the schedule drains; the kernel's ledger
    calls :meth:`double_release`.  The sanitizer holds no references to
    events (so the Timeout free list keeps recycling) and never mutates
    simulation state.
    """

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self.stats = SanitizerStats()
        self._last_key: tuple[float, int, int] = (float("-inf"), -(2**62), -(2**62))
        self.ledger = ledger_of(sim)
        #: registered fault-aware components (key -> registration time)
        self._components: dict[str, float] = {}

    # -- dispatch-loop hooks -------------------------------------------

    def on_dispatch(self, t: float, priority: int, seq: int, event: "Event") -> None:
        """Validate one popped schedule entry, *before* it is processed."""

        stats = self.stats
        stats.n_events += 1
        if t < 0:
            raise SanitizerError(
                f"negative event timestamp t={t!r} for {event!r}"
            )
        last_t, last_p, last_s = self._last_key
        if t < last_t:
            raise SanitizerError(
                f"time went backwards: dispatching t={t!r} after t={last_t!r} "
                f"({event!r})"
            )
        # Within one (time, priority) band, dispatch must follow trigger
        # order: every push takes a fresh, larger sequence number, so a
        # smaller-or-equal seq here means a stale entry (e.g. a recycled
        # event re-queued with its old key), whose tie order would depend
        # on pool state rather than trigger order.  A *lower* priority at
        # the same time is legitimate: urgent events created while
        # processing this timestep dispatch before the band continues.
        if t == last_t:
            stats.n_ties += 1
            if priority == last_p and seq <= last_s:
                raise SanitizerError(
                    "schedule tie order violated: "
                    f"(t={t!r}, prio={priority}, seq={seq}) dispatched after "
                    f"seq={last_s} in the same band for {event!r}; stale "
                    "sequence numbers make tie dispatch order pool-dependent "
                    "instead of trigger-ordered"
                )
        if event._processed:
            raise SanitizerError(
                f"double dispatch: {event!r} was already processed "
                "(aliased schedule entries, e.g. a recycled event re-queued "
                "while still scheduled)"
            )
        self._last_key = (t, priority, seq)

    def on_quiescent(self, now: float) -> None:
        """Schedule drained: report still-alive processes and held slots."""

        ledger = self.ledger
        leaked_procs = [p for p in ledger.procs if p.is_alive and not p.daemon]
        leaked_reqs = [
            rec
            for rec in ledger.requests.values()
            if rec.state == "granted" and not (rec.owner is not None and rec.owner.daemon)
        ]
        self.stats.leaked_processes = [p.name for p in leaked_procs]
        self.stats.leaked_requests = [_describe(r) for r in leaked_reqs]
        problems: list[str] = []
        if leaked_procs:
            names = ", ".join(repr(p.name) for p in leaked_procs[:_REPORT_LIMIT])
            extra = len(leaked_procs) - _REPORT_LIMIT
            if extra > 0:
                names += f", ... {extra} more"
            problems.append(
                f"{len(leaked_procs)} process(es) still alive at t={now:.6g}: "
                f"{names} (deadlocked or leaked; mark intentional service "
                "loops with daemon=True)"
            )
        if leaked_reqs:
            held = "; ".join(_describe(r) for r in leaked_reqs[:_REPORT_LIMIT])
            extra = len(leaked_reqs) - _REPORT_LIMIT
            if extra > 0:
                held += f"; ... {extra} more"
            problems.append(
                f"{len(leaked_reqs)} resource slot(s) never released: {held}"
            )
        if problems:
            raise SanitizerError("; ".join(problems))

    # -- resource ownership --------------------------------------------

    def double_release(self, rec: "RequestRecord") -> None:
        """The ledger saw a second release of the request ``rec`` tracks."""

        releaser = self.sim.active_process
        owner = rec.owner.name if rec.owner is not None else None
        if rec.state == "cancelled":
            first = (
                f"requested by {owner!r} at t={rec.requested_at:.6g}; cancelled "
                f"while queued at t={rec.released_at:.6g} by {rec.released_by!r}"
            )
        else:
            first = (
                f"acquired by {owner!r} (granted at t={rec.granted_at:.6g}); first "
                f"released at t={rec.released_at:.6g} by {rec.released_by!r}"
            )
        raise SanitizerError(
            f"double release of {_describe_resource(rec.resource)} slot {first}; "
            f"released again at t={self.sim.now:.6g} by "
            f"{None if releaser is None else releaser.name!r}"
        )

    # -- fault-injection lifecycle --------------------------------------

    def on_component_registered(self, key: str) -> None:
        """A fault-aware component came up (construction or recovery).

        Raises when ``key`` is already registered: a resurrection that
        re-registers without having crashed would double-create state.
        """

        if key in self._components:
            raise SanitizerError(
                f"component {key!r} registered twice (first at "
                f"t={self._components[key]:.6g}, again at t={self.sim.now:.6g}); "
                "a recovery must follow a crash, not duplicate a live component"
            )
        self._components[key] = self.sim.now

    def on_component_unregistered(self, key: str) -> None:
        """A fault-aware component went down (crash).  Raises when the
        component was never registered (or already unregistered)."""

        if key not in self._components:
            raise SanitizerError(
                f"component {key!r} unregistered at t={self.sim.now:.6g} "
                "but was not registered (double crash, or a component that "
                "never announced itself)"
            )
        del self._components[key]

    def on_server_dispatch(self, server: Any) -> None:
        """A data server is about to submit block work; a crashed server
        must not dispatch new requests."""

        if getattr(server, "crashed", False):
            name = getattr(server, "server_index", "?")
            raise SanitizerError(
                f"crashed data server ds{name} dispatched block work at "
                f"t={self.sim.now:.6g}; crash() must sever all service paths"
            )

    # -- introspection --------------------------------------------------

    def summary(self) -> dict[str, Any]:
        """Snapshot of counters plus currently-open state."""

        ledger = self.ledger
        open_reqs = sum(1 for r in ledger.requests.values() if r.state == "granted")
        return {
            "n_events": self.stats.n_events,
            "n_ties": self.stats.n_ties,
            "live_processes": sum(1 for p in ledger.procs if p.is_alive and not p.daemon),
            "open_requests": open_reqs,
            "registered_components": len(self._components),
        }
