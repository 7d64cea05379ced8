"""The benefit governor: hysteresis state machine + umbrella object.

Per governed job a :class:`JobGovernor` runs the state machine

    normal -> probing -> datadriven -> degraded -> (cooldown) -> normal

replacing EMC's single-threshold decision when a guard is installed:

- **normal**: delegate everything to the baseline engine.  Enter
  ``probing`` when EMC's enter conditions hold (or the job's config
  forces data-driven mode) and no cooldown is pending.
- **probing**: data-driven mode is on trial.  Realized cache hit-rate,
  per-cycle mis-prefetch ratio, and per-mode I/O throughput are tracked
  as EWMAs; negative benefit degrades immediately, surviving
  ``probe_window_s`` promotes to ``datadriven``.
- **datadriven**: stay while benefit holds; EMC's exit threshold still
  applies for unforced jobs.
- **degraded**: data-driven mode is off and re-probing is blocked for an
  escalating cooldown (doubling per degrade, capped), *even for jobs
  with* ``force_mode="datadriven"`` -- the guard outranks the pin, which
  is exactly what keeps a forced misbehaving job within reach of the
  vanilla baseline.  Unlike EMC's mis-prefetch lockout the degrade is
  never permanent: after the cooldown the job may probe again.

:class:`SafetyGovernor` owns the per-job governors plus the three other
guard parts (:class:`~repro.guard.budget.MemoryBudget`,
:class:`~repro.guard.breaker.CircuitBreaker`,
:class:`~repro.guard.watchdog.StallWatchdog`) and is the single object
the rest of the stack sees (``system.guard``, ``cache.budget``, ...).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional

from repro.guard.breaker import CircuitBreaker
from repro.guard.budget import MemoryBudget
from repro.guard.config import GuardConfig
from repro.guard.watchdog import StallWatchdog
from repro.sim import Simulator

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.engine import DualParEngine

__all__ = ["JobGovernor", "SafetyGovernor"]

NORMAL = "normal"
PROBING = "probing"
DATADRIVEN = "datadriven"
DEGRADED = "degraded"


class JobGovernor:
    """Hysteresis state machine governing one job's execution mode."""

    def __init__(self, guard: "SafetyGovernor", engine: "DualParEngine") -> None:
        self.guard = guard
        self.engine = engine
        self.sim = guard.sim
        self.config = guard.config
        self.state = NORMAL
        self.n_degrades = 0
        self.cooldown_until = 0.0
        self._probe_started = 0.0
        self.hit_rate_ewma: Optional[float] = None
        self.misprefetch_ewma: Optional[float] = None
        #: Throughput EWMAs per engine mode, for the speedup estimate.
        self._tp = {"normal": None, "datadriven": None}
        self._last_hits = engine.n_cache_hits
        self._last_misses = engine.n_cache_misses
        self._last_bytes = self._job_bytes()
        self._last_io_s = self._job_io_s()
        if registry := guard.registry:
            name = engine.job.name
            self._ts_hit_rate = registry.timeseries(f"guard.{name}.hit_rate")
            self._ts_speedup = registry.timeseries(f"guard.{name}.speedup")
        else:
            self._ts_hit_rate = None
            self._ts_speedup = None
        # A job pinned into data-driven mode starts on trial, not trusted:
        # the guard can (temporarily) overrule force_mode.
        if engine.job.mode == "datadriven":
            self.state = PROBING
            self._probe_started = self.sim.now
            guard.log_state(engine.job.name, PROBING, "initial")

    # -- measurement -----------------------------------------------------

    def _job_bytes(self) -> int:
        return sum(
            p.metrics.bytes_read + p.metrics.bytes_written
            for p in self.engine.job.procs
        )

    def _job_io_s(self) -> float:
        return sum(p.metrics.io_time_s for p in self.engine.job.procs)

    def _ewma(self, prev: Optional[float], sample: float) -> float:
        a = self.config.ewma_alpha
        return sample if prev is None else prev + a * (sample - prev)

    def _update_ewmas(self) -> None:
        eng = self.engine
        dh = eng.n_cache_hits - self._last_hits
        dm = eng.n_cache_misses - self._last_misses
        self._last_hits = eng.n_cache_hits
        self._last_misses = eng.n_cache_misses
        if dh + dm > 0:
            self.hit_rate_ewma = self._ewma(self.hit_rate_ewma, dh / (dh + dm))
            if self._ts_hit_rate is not None:
                self._ts_hit_rate.record(self.sim.now, self.hit_rate_ewma)
        b = self._job_bytes()
        t = self._job_io_s()
        db, dt = b - self._last_bytes, t - self._last_io_s
        if dt > 1e-3 and db > 0:
            self._last_bytes, self._last_io_s = b, t
            bucket = "datadriven" if eng.job.mode == "datadriven" else "normal"
            self._tp[bucket] = self._ewma(self._tp[bucket], db / dt)
            sp = self.speedup()
            if sp is not None and self._ts_speedup is not None:
                self._ts_speedup.record(self.sim.now, sp)

    def speedup(self) -> Optional[float]:
        """Observed datadriven/normal throughput ratio, when both exist."""
        dd, base = self._tp["datadriven"], self._tp["normal"]
        if dd is None or base is None or base <= 0:
            return None
        return dd / base

    def _benefit_negative(self) -> Optional[str]:
        cfg = self.config
        if (
            self.misprefetch_ewma is not None
            and self.engine.config.misprefetched(self.misprefetch_ewma)
        ):
            return "misprefetch"
        if self.hit_rate_ewma is not None and self.hit_rate_ewma < cfg.min_hit_rate:
            return "hit-rate"
        sp = self.speedup()
        if sp is not None and sp < cfg.min_speedup:
            return "speedup"
        return None

    # -- transitions -----------------------------------------------------

    def _to(self, state: str, reason: str) -> None:
        if state == self.state:
            return
        self.state = state
        self.guard.log_state(self.engine.job.name, state, reason)

    def _start_probe(self, reason: str) -> None:
        # Fresh trial: stale negative EWMAs from the last attempt must not
        # instantly re-degrade a workload that may have changed phase.
        self.hit_rate_ewma = None
        self.misprefetch_ewma = None
        self._tp["datadriven"] = None
        self._probe_started = self.sim.now
        self._to(PROBING, reason)
        if self.engine.job.mode != "datadriven":
            self.engine.set_mode("datadriven")

    def degrade(self, reason: str) -> None:
        """Benefit went negative (or a fault hit): back to vanilla."""
        if self.state == DEGRADED:
            return
        cfg = self.config
        self.n_degrades += 1
        cooldown = min(
            cfg.cooldown_s * cfg.cooldown_factor ** (self.n_degrades - 1),
            cfg.cooldown_max_s,
        )
        self.cooldown_until = self.sim.now + cooldown
        self._to(DEGRADED, reason)
        if self.engine.job.mode != "normal":
            self.engine.set_mode("normal")

    # -- inputs ----------------------------------------------------------

    def report_misprefetch(self, ratio: float) -> None:
        """Per-cycle mis-prefetch ratio from PEC accounting."""
        self.misprefetch_ewma = self._ewma(self.misprefetch_ewma, ratio)
        if self.engine.config.misprefetched(ratio) and self.state in (
            PROBING,
            DATADRIVEN,
        ):
            self.degrade("misprefetch")

    def evaluate(self, io_ratio: Optional[float], improvement: Optional[float]) -> None:
        """One EMC tick's decision for this job."""
        now = self.sim.now
        self._update_ewmas()
        eng = self.engine
        dcfg = eng.config
        if self.state == DEGRADED:
            if now >= self.cooldown_until:
                self._to(NORMAL, "cooldown-over")
            return
        if self.state == NORMAL:
            if now < self.cooldown_until or dcfg.force_mode == "normal":
                return
            want = dcfg.force_mode == "datadriven" or dcfg.should_enter(
                io_ratio, improvement
            )
            if want:
                self._start_probe("enter")
            return
        # probing / datadriven: benefit checks first.
        reason = self._benefit_negative()
        if reason is not None:
            self.degrade(reason)
            return
        if self.state == PROBING:
            if now - self._probe_started >= self.config.probe_window_s:
                self._to(DATADRIVEN, "probe-ok")
            return
        # datadriven: EMC's exit threshold still applies to unforced jobs.
        if dcfg.force_mode is None and dcfg.should_exit(io_ratio):
            self._to(NORMAL, "io-ratio-exit")
            if eng.job.mode != "normal":
                eng.set_mode("normal")


class SafetyGovernor:
    """Umbrella over budget, breaker, watchdog, and per-job governors."""

    def __init__(self, sim: Simulator, config: Optional[GuardConfig] = None) -> None:
        self.sim = sim
        self.config = config or GuardConfig()
        obs = sim.obs
        self.registry = obs.registry if obs is not None else None
        self._tracer = obs.tracer if obs is not None else None
        self.budget = MemoryBudget(self.config, registry=self.registry)
        self.breaker = CircuitBreaker(
            sim, self.config, registry=self.registry, tracer=self._tracer
        )
        self.watchdog: Optional[StallWatchdog] = (
            StallWatchdog(
                sim,
                interval_s=self.config.watchdog_interval_s,
                stall_window_s=self.config.stall_window_s,
                registry=self.registry,
                tracer=self._tracer,
            )
            if self.config.watchdog
            else None
        )
        self._governors: dict[int, JobGovernor] = {}
        self._job_names: dict[str, int] = {}
        #: (time, job name, new governor state, reason) history.
        self.transitions: list[tuple[float, str, str, str]] = []
        if self.registry is not None:
            self.registry.view(
                "guard.transitions", "counter", lambda: len(self.transitions)
            )
            self.registry.view(
                "guard.log",
                "event_log",
                lambda: {
                    "fields": ["t", "job", "state", "reason"],
                    "n": len(self.transitions),
                },
            )

    # -- wiring ----------------------------------------------------------

    def attach(
        self,
        dualpar: Optional[Any] = None,
        runtime: Optional[Any] = None,
        cluster: Optional[Any] = None,
    ) -> None:
        """Install the guard's hooks into an experiment's components.

        Every hook defaults to None in its host object, so anything not
        attached here simply keeps running unguarded.
        """
        if dualpar is not None:
            dualpar.guard = self
        cache = getattr(runtime, "global_cache", None) if runtime is not None else None
        if cache is not None:
            cache.budget = self.budget
        if cluster is not None:
            for server in cluster.data_servers:
                wb = getattr(server, "writeback", None)
                if wb is not None:
                    wb.budget = self.budget

    # -- per-job state machines ------------------------------------------

    def governor_for(self, engine: "DualParEngine") -> JobGovernor:
        job_id = engine.job.job_id
        gov = self._governors.get(job_id)
        if gov is None:
            gov = JobGovernor(self, engine)
            self._governors[job_id] = gov
            self._job_names[engine.job.name] = job_id
        return gov

    def state_of(self, job_name: str) -> Optional[str]:
        job_id = self._job_names.get(job_name)
        if job_id is None:
            return None
        return self._governors[job_id].state

    def states(self) -> dict[str, str]:
        return {
            name: self._governors[job_id].state
            for name, job_id in sorted(self._job_names.items())
        }

    @property
    def n_degrades(self) -> int:
        """Degrades, summed over the per-job governors."""
        return sum(gov.n_degrades for gov in self._governors.values())

    def log_state(self, job_name: str, state: str, reason: str) -> None:
        now = self.sim.now
        self.transitions.append((now, job_name, state, reason))
        if self._tracer is not None:
            self._tracer.instant(
                "guard.transition",
                track="guard",
                cat="guard",
                job=job_name,
                state=state,
                reason=reason,
            )

    # -- breaker facade ---------------------------------------------------

    def cache_allowed(self) -> bool:
        """May the engine route reads through the memcache ring now?"""
        return self.breaker.allow()

    def record_cache_op(self, latency_s: float) -> None:
        self.breaker.record(latency_s)

    # -- fault reactions --------------------------------------------------

    def on_fault(self, kind: str, phase: str, target: Optional[int] = None) -> None:
        """Fault-injector notification: react before the damage spreads.

        A crashed server or a network partition makes every open prefetch
        plan stale and every cache round-trip suspect: degrade active
        jobs now rather than waiting for the EWMAs to notice.  A fail-
        slow disk is the opposite case -- it is exactly where data-driven
        batching helps most (deep sorted queues amortize the slowness) --
        so it never degrades anything.  A cache-node eviction is scored
        as one breaker failure.
        """
        if phase != "apply":
            return
        if kind == "cache_evict":
            self.breaker.record_failure()
            return
        if kind in ("server_crash", "net_partition"):
            for job_id in sorted(self._governors):
                gov = self._governors[job_id]
                if gov.state in (PROBING, DATADRIVEN):
                    gov.degrade(f"fault:{kind}")

    # ------------------------------------------------------------------

    def summary(self) -> dict:
        """Picklable end-of-run digest (carried by SlimExperimentResult)."""
        return {
            "states": self.states(),
            "n_transitions": len(self.transitions),
            "n_degrades": self.n_degrades,
            "budget": self.budget.summary(),
            "breaker": self.breaker.summary(),
            "watchdog": self.watchdog.summary() if self.watchdog is not None else None,
        }
