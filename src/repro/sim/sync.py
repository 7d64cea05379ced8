"""The barrier behind ``MPI_Barrier``.

:class:`SimBarrier` is an ``n``-party reusable barrier: the returned
event of every arrival fires once all ``n`` parties have arrived.
"""

from __future__ import annotations

from repro.sim.core import Event, SimulationError, Simulator

__all__ = ["SimBarrier"]


class SimBarrier:
    """Reusable n-party barrier.

    The ``i``-th generation completes when ``parties`` processes have
    arrived; all are then released and the barrier resets.
    """

    def __init__(self, sim: Simulator, parties: int) -> None:
        if parties < 1:
            raise SimulationError("barrier needs at least one party")
        self.sim = sim
        self.parties = parties
        self._arrived = 0
        self._event = Event(sim)
        self.generation = 0

    @property
    def n_waiting(self) -> int:
        return self._arrived

    def arrive(self) -> Event:
        """Arrive at the barrier; returned event fires when all have."""
        self._arrived += 1
        ev = self._event
        if self._arrived >= self.parties:
            self._arrived = 0
            self.generation += 1
            self._event = Event(self.sim)
            ev.succeed(self.generation)
        return ev
