"""Discrete-event simulation kernel.

This package is the foundation substrate for the DualPar reproduction: a
small, deterministic, coroutine-based discrete-event simulator in the style
of SimPy.  Simulated entities (MPI processes, disk drives, network links,
daemons) are Python generators that ``yield`` :class:`Event` objects; the
:class:`Simulator` advances virtual time and resumes them when the events
fire.

Public API
----------
- :class:`Simulator` -- the event loop and clock.
- :class:`Event` -- one-shot triggerable event.
- :class:`Process` -- a running coroutine; itself an event that fires on
  completion.
- :class:`Interrupt` -- exception thrown into an interrupted process.
- :class:`Resource`, :class:`PriorityResource` -- capacity-limited servers.
- :class:`Store`, :class:`FilterStore` -- producer/consumer buffers.
- :class:`Gate`, :class:`SimBarrier`, :class:`Semaphore` -- synchronisation.
- :func:`all_of`, :func:`any_of` -- condition events.
"""

from repro.sim.core import (
    Event,
    Interrupt,
    Process,
    SimulationError,
    Simulator,
    Timeout,
    all_of,
    any_of,
)
from repro.sim.equeue import HeapQueue
from repro.sim.resources import (
    FilterStore,
    PriorityResource,
    Resource,
    Store,
)
from repro.sim.sync import Gate, Semaphore, SimBarrier

__all__ = [
    "Event",
    "FilterStore",
    "HeapQueue",
    "Gate",
    "Interrupt",
    "PriorityResource",
    "Process",
    "Resource",
    "Semaphore",
    "SimBarrier",
    "SimulationError",
    "Simulator",
    "Store",
    "Timeout",
    "all_of",
    "any_of",
]
