"""The disk drive service model.

A :class:`DiskDrive` services one request at a time (the owning block layer
is responsible for queueing and ordering -- that is the I/O scheduler's
job).  Service time decomposes into:

``seek``
    From the current head cylinder to the target cylinder
    (:class:`~repro.disk.seek.SeekModel`).
``rotational latency``
    The head arrives at the target track at a deterministic angular
    position (angles advance continuously with time at the platter's
    rotation rate); it must wait for the target sector to come around.
    Sequential continuation (request starts exactly where the last one
    ended) incurs neither seek nor rotation.
``transfer``
    ``nsectors`` at the media rate (one track per revolution).

This yields the two regimes the paper depends on: streaming at the media
rate for in-order contiguous service, and ~(seek + half revolution) per
request for scattered service.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Generator, Optional, Protocol

from repro.disk.geometry import SECTOR_BYTES, DiskGeometry
from repro.disk.seek import SeekModel
from repro.disk.stats import DriveStats
from repro.sim import Simulator

__all__ = ["BlockDevice", "DiskDrive", "DiskParams"]


class _DiskMetrics:
    """Registry instruments for one drive (allocated only when observed)."""

    __slots__ = ("seeks", "seek_s", "rotation_s", "transfer_s", "sequential_hits",
                 "seek_sectors")

    def __init__(self, registry, name: str, stats: DriveStats):
        pre = f"disk.{name}"
        # Completed accesses and their sectors: views of the drive's totals.
        registry.view(f"{pre}.accesses", "counter", lambda: stats.n_requests)
        registry.view(
            f"{pre}.sectors", "counter", lambda: stats.total_bytes // SECTOR_BYTES
        )
        self.seeks = registry.counter(f"{pre}.seeks")
        self.seek_s = registry.counter(f"{pre}.seek_s")
        self.rotation_s = registry.counter(f"{pre}.rotation_s")
        self.transfer_s = registry.counter(f"{pre}.transfer_s")
        self.sequential_hits = registry.counter(f"{pre}.sequential_hits")
        # Seek distance per request, in sectors (Fig 7(b)'s quantity).
        self.seek_sectors = registry.histogram(
            f"{pre}.seek_sectors", bounds=[2**i for i in range(8, 31, 2)]
        )


@dataclass(frozen=True)
class DiskParams:
    """Datasheet-style drive parameters (defaults: a 7200-RPM SATA drive)."""

    capacity_bytes: int = 500 * 10**9
    rpm: float = 7200.0
    sectors_per_track: int = 1200
    heads: int = 4
    track_to_track_s: float = 0.0008
    average_seek_s: float = 0.008
    full_stroke_s: float = 0.016

    @property
    def revolution_s(self) -> float:
        return 60.0 / self.rpm

    @property
    def media_rate_bytes_s(self) -> float:
        """Sustained transfer rate streaming one track per revolution."""
        return self.sectors_per_track * SECTOR_BYTES / self.revolution_s


class BlockDevice(Protocol):
    """Anything that can service block requests serially."""

    stats: DriveStats

    @property
    def total_sectors(self) -> int: ...

    def service(self, lbn: int, nsectors: int, op: str = "R") -> Generator: ...


class DiskDrive:
    """A single mechanical drive.

    Parameters
    ----------
    sim:
        The simulator supplying the clock.
    params:
        Mechanical parameters.
    name:
        Label for traces.
    on_access:
        Optional callback ``(time, lbn, nsectors, op)`` invoked at the start
        of each media transfer -- the hook :mod:`repro.trace.blktrace` uses.
    """

    def __init__(
        self,
        sim: Simulator,
        params: Optional[DiskParams] = None,
        name: str = "disk0",
        on_access: Optional[Callable[[float, int, int, str], None]] = None,
    ):
        self.sim = sim
        self.params = params or DiskParams()
        self.name = name
        self.geometry = DiskGeometry.from_capacity(
            self.params.capacity_bytes,
            sectors_per_track=self.params.sectors_per_track,
            heads=self.params.heads,
        )
        self.seek_model = SeekModel(
            n_cylinders=self.geometry.n_cylinders,
            track_to_track_s=self.params.track_to_track_s,
            average_s=self.params.average_seek_s,
            full_stroke_s=self.params.full_stroke_s,
        )
        self.stats = DriveStats()
        self.on_access = on_access
        #: Head state: current cylinder and the LBN one past the last
        #: serviced request (for sequential-continuation detection).
        self.head_cylinder = 0
        self._next_sequential_lbn: Optional[int] = None
        self._busy = False
        #: Fail-slow state set by the fault injector: None nominally,
        #: anything with ``transfer_factor`` / ``extra_seek_s`` when
        #: degraded (duck-typed, see repro.faults.plan.DiskFault).
        self.fault: Optional[object] = None
        #: None when unobserved so the hot path pays one identity check.
        self._metrics: Optional[_DiskMetrics] = (
            _DiskMetrics(sim.obs.registry, name, self.stats) if sim.obs is not None else None
        )

    @property
    def total_sectors(self) -> int:
        return self.geometry.total_sectors

    # ------------------------------------------------------------------

    def _decompose(self, lbn: int, nsectors: int) -> tuple[float, float, float]:
        """``(seek, rotation, transfer)`` seconds for a request, given the
        current head state and clock.  Pure: does not mutate state."""
        if nsectors <= 0:
            raise ValueError("nsectors must be positive")
        geo = self.geometry
        if lbn + nsectors > geo.total_sectors:
            raise ValueError(
                f"request [{lbn}, {lbn + nsectors}) beyond disk end {geo.total_sectors}"
            )
        rev = self.params.revolution_s
        # One track passes under the head per revolution.
        transfer = nsectors / geo.sectors_per_track * rev
        fault = self.fault
        if fault is not None:
            # Fail-slow: the media streams slower (retried sector reads).
            transfer *= fault.transfer_factor

        if self._next_sequential_lbn is not None and lbn == self._next_sequential_lbn:
            # Streaming continuation: head is already in position.
            return 0.0, 0.0, transfer

        target_cyl = geo.cylinder_of(lbn)
        seek = self.seek_model.seek_time(target_cyl - self.head_cylinder)
        if fault is not None:
            # A sick actuator re-calibrates: flat penalty per positioning.
            seek += fault.extra_seek_s
        # Angular position of the head when the seek completes, measured in
        # fractions of a revolution.  The platter spins continuously.
        t_arrive = self.sim.now + seek
        head_angle = (t_arrive / rev) % 1.0
        target_angle = geo.angle_of(lbn)
        rotation = ((target_angle - head_angle) % 1.0) * rev
        return seek, rotation, transfer

    def service_time(self, lbn: int, nsectors: int) -> float:
        """Pure function of (head state, clock): seconds to serve a request.

        Does not mutate state; ``service`` uses it then commits.
        """
        seek, rotation, transfer = self._decompose(lbn, nsectors)
        return seek + rotation + transfer

    def service(self, lbn: int, nsectors: int, op: str = "R") -> Generator:
        """Serve one request; yields until the simulated service completes.

        The drive is strictly serial: concurrent calls are a caller bug and
        raise immediately.
        """
        if self._busy:
            raise RuntimeError(f"{self.name}: concurrent service() calls")
        self._busy = True
        try:
            start = self.sim.now
            seek, rotation, transfer = self._decompose(lbn, nsectors)
            duration = seek + rotation + transfer
            prev_end = self._next_sequential_lbn
            seek_sectors = 0 if prev_end is None else abs(lbn - prev_end)
            if self.on_access is not None:
                self.on_access(start, lbn, nsectors, op)
            m = self._metrics
            if m is not None:
                m.seek_s.inc(seek)
                m.rotation_s.inc(rotation)
                m.transfer_s.inc(transfer)
                if seek == 0.0 and rotation == 0.0:
                    m.sequential_hits.inc()
                else:
                    m.seeks.inc()
                m.seek_sectors.observe(seek_sectors)
            yield self.sim.timeout(duration)
            # Commit head state.
            last = lbn + nsectors - 1
            self.head_cylinder = self.geometry.cylinder_of(last)
            self._next_sequential_lbn = lbn + nsectors
            self.stats.record(nsectors, seek_sectors, duration)
        finally:
            self._busy = False

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<DiskDrive {self.name} cyl={self.head_cylinder}>"
