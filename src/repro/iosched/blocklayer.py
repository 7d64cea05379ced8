"""The block layer: submission queue, dispatch loop, completion delivery.

``submit()`` hands a request to the elected scheduler and returns an event
that fires when the disk has serviced it.  A single dispatch process owns
the device: it repeatedly asks the scheduler to decide, honours idle
windows (re-deciding early when a new request arrives), and serves chosen
units.  Queue-depth statistics are sampled at every dispatch -- they are
the observable the paper uses to explain CFQ's failure under synchronous
trickle ("the disk scheduler sees a limited number of outstanding
requests").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.disk.drive import BlockDevice
from repro.iosched.base import IoScheduler
from repro.iosched.request import BlockRequest
from repro.sim import Event, Simulator, any_of

__all__ = ["BlockLayer", "BlockLayerStats"]

#: Queue-depth cap (Linux ``nr_requests``): submitters that can block
#: wait in :meth:`BlockLayer.throttle` while this many units are queued.
NR_REQUESTS = 128


class _BlkMetrics:
    """Recorded instruments for one block layer (allocated when observed)."""

    __slots__ = ("merged", "queue_depth", "unit_sectors", "start_delay_s")

    def __init__(self, registry, name: str):
        pre = f"blk.{name}"
        #: Requests absorbed into another unit by front/back merging.
        self.merged = registry.counter(f"{pre}.merged")
        self.queue_depth = registry.histogram(
            f"{pre}.queue_depth", bounds=[1, 2, 4, 8, 16, 32, 64, 128, 256]
        )
        self.unit_sectors = registry.histogram(
            f"{pre}.unit_sectors", bounds=[8, 16, 32, 64, 128, 256, 512, 1024, 2048]
        )
        self.start_delay_s = registry.histogram(
            f"{pre}.start_delay_s",
            bounds=[1e-4, 1e-3, 5e-3, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0],
        )


@dataclass
class BlockLayerStats:
    n_submitted: int = 0
    n_units_served: int = 0
    depth_samples: list = field(default_factory=list)
    total_unit_sectors: int = 0

    @property
    def mean_queue_depth(self) -> float:
        if not self.depth_samples:
            return 0.0
        return sum(self.depth_samples) / len(self.depth_samples)

    @property
    def mean_unit_sectors(self) -> float:
        if not self.n_units_served:
            return 0.0
        return self.total_unit_sectors / self.n_units_served


class BlockLayer:
    """Owns one block device and schedules requests onto it.

    ``NR_REQUESTS`` mirrors the Linux queue-depth cap (128): when
    the queue is congested, submitters that can block should ``yield
    from throttle()`` before calling :meth:`submit` -- exactly what a
    server thread sleeping in ``get_request_wait`` does.
    """

    def __init__(
        self,
        sim: Simulator,
        device: BlockDevice,
        scheduler: IoScheduler,
        name: str = "blk0",
    ):
        self.sim = sim
        self.device = device
        self.scheduler = scheduler
        self.name = name
        self.stats = BlockLayerStats()
        self._head_lbn = 0
        self._arrival: Optional[Event] = None
        self._congestion_waiters: list[Event] = []  # simlint: ignore[SL006] one event per inflight submitter; drained every un-congest
        self._metrics: Optional[_BlkMetrics] = None
        if sim.obs is not None:
            reg = sim.obs.registry
            stats = self.stats
            reg.view(f"blk.{name}.submitted", "counter", lambda: stats.n_submitted)
            # Units the disk finished; the dispatch count is the n of
            # blk.<name>.queue_depth (one sample per dispatched unit).
            reg.view(f"blk.{name}.units_served", "counter", lambda: stats.n_units_served)
            self._metrics = _BlkMetrics(reg, name)
        self._tracer = sim.obs.tracer if sim.obs is not None else None
        self._dispatcher = sim.process(
            self._dispatch_loop(), name=f"{name}-dispatch", daemon=True
        )

    # ------------------------------------------------------------------

    def submit(
        self,
        lbn: int,
        nsectors: int,
        op: str = "R",
        stream_id: int = 0,
        tag: object = None,
        is_async: bool = False,
        trace_id: int = 0,
    ) -> Event:
        """Queue a request; returns its completion event."""
        completion = self.sim.event()
        req = BlockRequest(
            lbn=lbn,
            nsectors=nsectors,
            op=op,
            stream_id=stream_id,
            submit_time=self.sim.now,
            completion=completion,
            tag=tag,
            is_async=is_async,
            trace_id=trace_id,
        )
        self.scheduler.add(req, self.sim.now)
        self.stats.n_submitted += 1
        if self._arrival is not None and not self._arrival.triggered:
            self._arrival.succeed()
        return completion

    @property
    def queue_depth(self) -> int:
        return len(self.scheduler)

    @property
    def congested(self) -> bool:
        return len(self.scheduler) >= NR_REQUESTS

    def throttle(self):
        """Generator: wait while the queue is over ``NR_REQUESTS``."""
        while self.congested:
            ev = self.sim.event()
            self._congestion_waiters.append(ev)
            yield ev

    # ------------------------------------------------------------------

    def _wait_arrival(self):
        self._arrival = self.sim.event()
        yield self._arrival
        self._arrival = None

    def _dispatch_loop(self):
        sim = self.sim
        scheduler = self.scheduler
        stats = self.stats
        while True:
            unit = scheduler.decide(sim.now, self._head_lbn)
            if unit is None:
                yield from self._wait_arrival()
                continue
            if unit.__class__ is float:
                # Idle until the window ends or a new request arrives.
                self._arrival = sim.event()
                yield any_of(sim, [self._arrival, sim.timeout(unit)])
                # Whether the timer or an arrival won, drop the arrival
                # event; an untriggered orphan is harmless garbage.
                self._arrival = None
                continue
            stats.depth_samples.append(len(scheduler) + 1)
            m = self._metrics
            if m is not None:
                m.queue_depth.observe(len(scheduler) + 1)
                m.unit_sectors.observe(unit.nsectors)
                if len(unit.parts) > 1:
                    m.merged.inc(len(unit.parts) - 1)
                for part in unit.parts:
                    m.start_delay_s.observe(sim.now - part.submit_time)
            if self._tracer is not None:
                with self._tracer.span(
                    "disk.service",
                    track=self.name,
                    cat="iosched",
                    trace=unit.parts[0].trace_id if unit.parts else 0,
                    lbn=unit.lbn,
                    nsectors=unit.nsectors,
                    op=unit.op,
                    parts=len(unit.parts),
                ):
                    yield from self.device.service(unit.lbn, unit.nsectors, unit.op)
            else:
                yield from self.device.service(unit.lbn, unit.nsectors, unit.op)
            self._head_lbn = unit.end
            stats.n_units_served += 1
            stats.total_unit_sectors += unit.nsectors
            done_at = sim.now
            scheduler.on_complete(unit, done_at)
            for part in unit.parts:
                part.completion.succeed(done_at)
            if self._congestion_waiters and not self.congested:
                waiters, self._congestion_waiters = self._congestion_waiters, []
                for ev in waiters:
                    ev.succeed()
