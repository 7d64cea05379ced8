"""The kernel's lifecycle ledger: live processes and open resource requests.

The one bookkeeping that both kernel observers read: the
:class:`~repro.devtools.sanitizer.SimSanitizer` (leak check, double-release
attribution) and the :class:`~repro.guard.watchdog.StallWatchdog` (alive
list, "holds" column).  :func:`ledger_of` attaches it as ``sim._ledger``
for the first of them; it stays ``None`` otherwise, so a nominal run pays
one ``is not None`` test per site.  ``Process.__init__``,
``Resource.request`` and ``Resource.release`` each make one call.

A process leaves the ledger when its completion event is processed, a
request when it is released or cancelled; the request's record then stays
reachable from the request alone (``request.record``).  Processes and
requests made before the ledger was attached are not tracked.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.core import Process, Simulator

__all__ = ["Ledger", "RequestRecord", "ledger_of"]


@dataclass(slots=True)
class RequestRecord:
    """Lifecycle of one resource request, for attribution."""

    resource: Any
    #: The process that made the request (None outside any process).
    owner: Optional["Process"]
    requested_at: float
    state: str = "pending"  # pending -> granted -> released | cancelled
    granted_at: Optional[float] = None
    released_at: Optional[float] = None
    released_by: Optional[str] = None


class Ledger:
    """Live processes and open requests of one simulator."""

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        #: Live processes in creation order, daemons included.
        self.procs: dict["Process", None] = {}
        #: Open (pending or granted) requests -> record, in request order.
        self.requests: dict[Any, RequestRecord] = {}

    def spawn(self, proc: "Process") -> None:
        self.procs[proc] = None
        # Leaves once its completion event (the Process) is processed.
        proc.callbacks.append(self.procs.pop)  # type: ignore[union-attr]

    def request(self, resource: Any, req: Any) -> None:
        """``req`` was made on ``resource`` (granted at once if triggered)."""
        sim = self.sim
        now = sim._now
        rec = req.record = RequestRecord(resource, sim._active, now)
        if req._triggered:
            rec.state = "granted"
            rec.granted_at = now
        self.requests[req] = rec

    def release(self, req: Any, handed_to: Any) -> None:
        """``req`` was released (its slot going to ``handed_to``, or None)
        or cancelled while queued.

        Called with ``handed_to=None`` before the resource rejects a
        request it holds nowhere: a second release of a tracked request
        then raises the sanitizer's attributed error.
        """
        sim = self.sim
        rec = self.requests.pop(req, None)
        if rec is not None:
            active = sim._active
            rec.state = "released" if rec.state == "granted" else "cancelled"
            rec.released_at = sim._now
            rec.released_by = None if active is None else active.name
        elif sim._sanitizer is not None and getattr(req, "record", None) is not None:
            sim._sanitizer.double_release(req.record)
        if handed_to is not None:
            nxt = self.requests.get(handed_to)
            if nxt is not None:
                nxt.state = "granted"
                nxt.granted_at = sim._now


def ledger_of(sim: "Simulator") -> Ledger:
    """``sim``'s ledger, attached on first use."""
    if sim._ledger is None:
        sim._ledger = Ledger(sim)
    return sim._ledger
