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
- :class:`Resource` -- capacity-limited servers with a FIFO wait queue
  (each NIC side of the network model).
- :class:`Store` -- FIFO producer/consumer buffer.
- :class:`SimBarrier` -- reusable n-party barrier (``MPI_Barrier``).
- :func:`all_of`, :func:`any_of` -- condition events.
- :class:`HeapQueue` -- the pure-Python event queue.
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
from repro.sim.resources import Resource, Store
from repro.sim.sync import SimBarrier

__all__ = [
    "Event",
    "HeapQueue",
    "Interrupt",
    "Process",
    "Resource",
    "SimBarrier",
    "SimulationError",
    "Simulator",
    "Store",
    "Timeout",
    "all_of",
    "any_of",
]
