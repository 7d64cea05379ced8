"""DualParSystem: one per cluster, wiring EMC, recorders, and engines."""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Callable, Optional

from repro.core.config import DualParConfig
from repro.core.emc import EmcDaemon
from repro.core.metrics import JobIoSampler, RequestRecorder
from repro.mpi.ops import IoOp

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.engine import DualParEngine
    from repro.mpi.runtime import MpiJob, MpiProcess, MpiRuntime

__all__ = ["DualParSystem"]


class DualParSystem:
    """Cluster-wide DualPar infrastructure.

    Create one per :class:`~repro.mpi.runtime.MpiRuntime`, then launch
    jobs with :meth:`engine_factory`:

    >>> system = DualParSystem(runtime)                      # doctest: +SKIP
    >>> job = runtime.launch("app", 64, workload,
    ...                      system.engine_factory())        # doctest: +SKIP
    """

    def __init__(self, runtime: "MpiRuntime", config: Optional[DualParConfig] = None):
        self.runtime = runtime
        self.config = config or DualParConfig()
        spec = runtime.cluster.spec
        self.recorders: dict[int, RequestRecorder] = {
            spec.compute_node_id(i): RequestRecorder(
                spec.compute_node_id(i), window_s=self.config.metric_window_s
            )
            for i in range(spec.n_compute_nodes)
        }
        self.engines: dict[int, "DualParEngine"] = {}
        self._samplers: dict[int, JobIoSampler] = {}
        #: (time, job name, new mode) transitions, for Fig-7 style analysis.
        self.transitions: list[tuple[float, str, str]] = []
        sim = runtime.sim
        if sim.obs is not None:
            sim.obs.registry.view(
                "emc.mode_transitions", "counter", lambda: len(self.transitions)
            )
        self._tracer = sim.obs.tracer if sim.obs is not None else None
        #: The fault injector when a plan is installed, None nominally.
        self.faults = None
        #: Safety governor (repro.guard.SafetyGovernor) when one is
        #: attached; None nominally.  When set, EMC delegates per-job mode
        #: decisions (and mis-prefetch reports) to its state machines.
        self.guard = None
        self.emc = EmcDaemon(self, self.config)

    # -- fault fan-out ---------------------------------------------------

    def on_server_fault(self, server_index: int) -> None:
        """A data server crashed: every engine's PEC stops pre-executing
        for it (the open cycle's batch plan is stale)."""
        for job_id in sorted(self.engines):
            # Not charged network time: fault fan-out from the harness (DESIGN.md).
            self.engines[job_id].pec.on_server_fault(server_index)

    def on_compute_node_fault(self, node_id: int) -> None:
        """A cache node was evicted: CRMs re-elect lost coordinators."""
        for job_id in sorted(self.engines):
            # Not charged network time: fault fan-out from the harness (DESIGN.md).
            self.engines[job_id].crm.on_node_fault(node_id)

    # ------------------------------------------------------------------

    def engine_factory(self, forced: bool = False) -> Callable:
        """A factory suitable for ``MpiRuntime.launch(engine_factory=...)``.

        ``forced`` pins the launched job in data-driven mode (strategy
        ``dualpar-forced``); otherwise the job runs under this system's
        config.
        """
        config = (
            dataclasses.replace(self.config, force_mode="datadriven")
            if forced
            else self.config
        )

        def factory(runtime: "MpiRuntime", job: "MpiJob"):
            from repro.core.engine import DualParEngine

            return DualParEngine(runtime, job, system=self, config=config)

        return factory

    # ------------------------------------------------------------------

    def register(self, engine: "DualParEngine") -> None:
        self.engines[engine.job.job_id] = engine
        self._samplers[engine.job.job_id] = JobIoSampler(engine.job)

    def unregister(self, engine: "DualParEngine") -> None:
        self.engines.pop(engine.job.job_id, None)
        self._samplers.pop(engine.job.job_id, None)

    def sampler_of(self, engine: "DualParEngine") -> JobIoSampler:
        return self._samplers[engine.job.job_id]

    def record_request(self, proc: "MpiProcess", op: IoOp) -> None:
        rec = self.recorders.get(proc.node_id)
        if rec is None:
            return
        rec.record_segments(self.runtime.sim.now, op.file_name, op.segments)

    def log_transition(self, job: "MpiJob", mode: str) -> None:
        self.transitions.append((self.runtime.sim.now, job.name, mode))
        if self._tracer is not None:
            self._tracer.instant(
                "emc.mode_transition", track="emc", cat="dualpar",
                job=job.name, mode=mode,
            )

    def report_misprefetch(self, engine: "DualParEngine", ratio: float) -> None:
        self.emc.report_misprefetch(engine, ratio)
