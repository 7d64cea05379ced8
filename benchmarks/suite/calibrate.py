"""Host-speed calibration: report host times at a fixed reference speed.

The suite runs on shared VMs whose speed drifts by tens of percent, in
phases that last from a second to minutes, and a slow phase slows the
simulator along with everything else.  A *slice* -- a fixed piece of
pure-Python work of about a millisecond -- measures the host's speed at
one moment.  A :class:`SpeedProbe` runs slices before, during (on a
``SIGALRM`` every ``INTERVAL_S``) and after a measured section of the
calling thread, and reports the section's time at the speed a slice had
when ``SLICE_S`` was pinned::

    with SpeedProbe() as probe:
        work()
    probe.scaled_s  # busy seconds at reference speed

``probed_serve.py`` runs the same slices inside the service's processes
and logs them, and ``speed_of`` turns any set of them into a speed.

A slice is timed in thread CPU time, so being descheduled in favour of
the suite's own processes does not count as a slow host.  It imports
nothing from ``repro``: a change to the program cannot move it, and it
touches none of the program's objects, so results stay bit-identical
(the suite checks digests).  Do not edit the slice or ``SLICE_S``: that
would rescale every reported time.
"""

from __future__ import annotations

import heapq
import signal
import statistics
import time
from typing import Callable

__all__ = ["EDGE_SLICES", "INTERVAL_S", "SLICE_S", "SpeedProbe", "slice_seconds", "speed_of"]

#: Thread CPU seconds of one slice on the 2-CPU Xeon VM the suite was
#: calibrated on, in a quiet phase.  It only sets the unit scaled times
#: are given in: on that VM, when quiet, scaled seconds are host seconds.
SLICE_S = 0.001
#: Wall seconds between two slices inside a probed section (~4 % of it).
INTERVAL_S = 0.025
#: Slices run before and after the section, so short sections have some.
EDGE_SLICES = 3


def _ticker(i: int, n: int):
    state = {}
    for k in range(n):
        state[k & 7] = (i, k)
        yield float((k * 7 + i) % 13 + 1)


def slice_seconds(
    clock: Callable[[], float] = time.thread_time, push=heapq.heappush, pop=heapq.heappop,
) -> float:
    """Thread CPU seconds one slice takes right now.

    Half of it is an integer loop, half a miniature discrete-event
    simulation (generators resumed in time order off a heap).  On the VM
    the suite was built on, the simulator slows by more than the integer
    loop in a slow phase and by less than the miniature simulation; the
    two together track it best.  Both halves keep a few kilobytes of data
    in the core's own caches, so the program's memory traffic does not
    slow them, and they reach everything through locals, so they make no
    attribute lookups that could disturb the interpreter's caches when
    run from a signal handler."""
    t0 = clock()
    x = 0
    for i in range(10_000):
        x += i & 7
    heap: list = []
    for i in range(8):
        push(heap, (float(i), i, _ticker(i, 110)))
    while heap:
        now, i, gen = pop(heap)
        delay = next(gen, None)
        if delay is not None:
            push(heap, (now + delay, i, gen))
    return clock() - t0


def speed_of(slices: list[float]) -> float:
    """Mean host speed over evenly spaced slices, 1.0 at reference speed:
    the mean of ``SLICE_S / slice``, each slice standing for an equal
    share of wall time."""
    return SLICE_S / statistics.harmonic_mean(slices)


class SpeedProbe:
    """Host speed over one section; see the module docstring."""

    def __init__(self, interval_s: float = INTERVAL_S) -> None:
        self.interval_s = interval_s
        self.slices: list[float] = []
        #: Wall seconds of a ``with`` section, slices inside it included.
        self.wall_s = 0.0
        #: Wall seconds of every slice run, edges included.
        self.slices_wall_s = 0.0
        #: Wall seconds of the slices run inside a ``with`` section.
        self._inside = [0.0]
        self._t0 = 0.0
        self._previous = None

    def _slice(self) -> float:
        """Run one slice; return the wall seconds it took."""
        t0 = time.perf_counter()
        self.slices.append(slice_seconds())
        wall = time.perf_counter() - t0
        self.slices_wall_s += wall
        return wall

    def _edge(self) -> None:
        for _ in range(EDGE_SLICES):
            self._slice()

    def __enter__(self) -> "SpeedProbe":
        self._edge()
        # The handler runs inside the program's code: it reaches
        # everything through closure cells, not attributes.
        append, clock, inside = self.slices.append, time.perf_counter, self._inside

        def tick(signum, frame) -> None:
            t0 = clock()
            append(slice_seconds())
            inside[0] += clock() - t0

        self._previous = signal.signal(signal.SIGALRM, tick)
        self._t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        self.wall_s = time.perf_counter() - self._t0
        signal.signal(signal.SIGALRM, self._previous)
        self.slices_wall_s += self._inside[0]
        self._edge()

    @property
    def busy_s(self) -> float:
        """Wall seconds of a ``with`` section minus the slices inside it."""
        return self.wall_s - self._inside[0]

    @property
    def speed(self) -> float:
        """Mean host speed over the section (see :func:`speed_of`)."""
        return speed_of(self.slices)

    @property
    def scaled_s(self) -> float:
        """A ``with`` section's busy seconds at reference speed."""
        return self.busy_s * self.speed
