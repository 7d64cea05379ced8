"""Execution Mode Control: the decision daemon on the metadata server.

Every ``emc_interval_s`` the daemon computes:

- ``aveSeekDist`` -- mean recent per-request head seek distance reported
  by the locality daemons on the data servers;
- ``aveReqDist`` -- mean sorted-adjacent request distance recorded at the
  compute nodes (the best locality a data-driven execution could create);
- each registered program's recent I/O ratio.

A program enters data-driven mode when its I/O ratio exceeds
``io_ratio_enter`` (80 %) *and* the potential improvement
``aveSeekDist / aveReqDist`` exceeds ``T_improvement`` (3).  It reverts
when its I/O ratio falls below ``io_ratio_exit``, or immediately -- and
permanently, unless a safety governor runs -- when its mis-prefetch
ratio exceeds 20 %.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.core.config import DualParConfig

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.engine import DualParEngine
    from repro.core.system import DualParSystem

__all__ = ["EmcDaemon", "EmcSample"]


@dataclass(frozen=True)
class EmcSample:
    """One evaluation tick's view of the system (kept for analysis)."""

    time: float
    ave_seek_dist: Optional[float]
    ave_req_dist: Optional[float]
    improvement: Optional[float]
    io_ratios: dict  # job name -> ratio


class EmcDaemon:
    """Execution Mode Control: periodically evaluates every registered
    program's I/O ratio against the cluster's seek/request distance ratio
    and flips execution modes."""

    def __init__(self, system: "DualParSystem", config: DualParConfig):
        self.system = system
        self.config = config
        self.sim = system.runtime.sim
        self.samples: list[EmcSample] = []
        if self.sim.obs is not None:
            reg = self.sim.obs.registry
            reg.view("emc.ticks", "counter", lambda: len(self.samples))
            for field in ("improvement", "ave_seek_dist", "ave_req_dist"):
                reg.view(f"emc.{field}", "timeseries", self._series_reader(field))
        self._proc = self.sim.process(self._run(), name="emc", daemon=True)

    def _series_reader(self, field: str):
        """Snapshot reader of one sample field as a ``[[t, v], ...]``
        series, skipping ticks where the field was undefined."""

        def read() -> list:
            return [
                [s.time, v]
                for s in self.samples
                if (v := getattr(s, field)) is not None
            ]

        return read

    # ------------------------------------------------------------------

    def live_servers(self) -> Optional[frozenset[int]]:
        """Data servers that are not crashed, or None when no fault plan
        is installed (nominal run: everything is live).

        CRM consults this when building batch plans so dead servers are
        dropped rather than timed out against.
        """
        if self.system.faults is None:
            return None
        servers = self.system.runtime.cluster.data_servers
        return frozenset(ds.server_index for ds in servers if not ds.crashed)

    def ave_seek_dist(self) -> Optional[float]:
        vals = [
            # Not charged network time: locality poll of a data server (DESIGN.md).
            d.recent_seek_dist()
            for d in self.system.runtime.cluster.locality_daemons
        ]
        vals = [v for v in vals if v is not None]
        if not vals:
            return None
        return sum(vals) / len(vals)

    def ave_req_dist(self) -> Optional[float]:
        now = self.sim.now
        vals = [r.recent_req_dist(now) for r in self.system.recorders.values()]
        vals = [v for v in vals if v is not None]
        if not vals:
            return None
        return sum(vals) / len(vals)

    def improvement(self) -> Optional[float]:
        return self._improvement(self.ave_seek_dist(), self.ave_req_dist())

    def _improvement(self, seek: Optional[float], req: Optional[float]) -> Optional[float]:
        if seek is None or req is None:
            return None
        # A perfectly sorted stream has ReqDist ~0; floor it at one stripe
        # unit worth of sectors to keep the ratio finite.
        floor_sectors = self.system.runtime.cluster.spec.stripe_unit / 512.0
        return seek / max(req, floor_sectors)

    # ------------------------------------------------------------------

    def _run(self):
        cfg = self.config
        sim = self.sim
        while True:
            yield sim.timeout(cfg.emc_interval_s)
            seek, req = self.ave_seek_dist(), self.ave_req_dist()
            imp = self._improvement(seek, req)
            guard = self.system.guard
            ratios = {}
            for engine in list(self.system.engines.values()):
                job = engine.job
                if job.finished:
                    continue
                ratio = self.system.sampler_of(engine).sample()
                if ratio is not None:
                    ratios[job.name] = ratio
                if guard is not None:
                    # The safety governor's hysteresis state machine takes
                    # over the whole decision -- including for engines with
                    # force_mode, which the guard may temporarily overrule.
                    guard.governor_for(engine).evaluate(ratio, imp)
                    continue
                if engine.config.force_mode is not None:
                    continue
                # Not charged network time: EMC mode-control message (DESIGN.md).
                if engine.locked_out:
                    continue
                if job.mode == "normal":
                    if cfg.should_enter(ratio, imp):
                        # Not charged network time: EMC mode-control message (DESIGN.md).
                        engine.set_mode("datadriven")
                elif cfg.should_exit(ratio):
                    # Not charged network time: EMC mode-control message (DESIGN.md).
                    engine.set_mode("normal")
            sample = EmcSample(
                time=sim.now,
                ave_seek_dist=seek,
                ave_req_dist=req,
                improvement=imp,
                io_ratios=ratios,
            )
            self.samples.append(sample)

    # ------------------------------------------------------------------

    def report_misprefetch(self, engine: "DualParEngine", ratio: float) -> None:
        """Called by PEC with each cycle's mis-prefetch ratio."""
        guard = self.system.guard
        if guard is not None:
            # Escalating-cooldown degrade instead of the permanent lockout.
            guard.governor_for(engine).report_misprefetch(ratio)
            return
        if self.config.misprefetched(ratio):
            # Once disabled by mis-prefetching, stay disabled ("a large
            # mis-prefetching miss ratio will turn off the data-driven
            # mode. So this is a one-time overhead").
            # Not charged network time: EMC mode-control message (DESIGN.md).
            engine.locked_out = True
            if engine.job.mode == "datadriven" and engine.config.force_mode is None:
                # Not charged network time: EMC mode-control message (DESIGN.md).
                engine.set_mode("normal")
