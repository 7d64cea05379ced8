"""Build, run, and measure one experiment."""

from __future__ import annotations

import gc
import threading
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from typing import Any, Optional

from repro.cluster import ClusterSpec, build_cluster
from repro.core.config import DualParConfig
from repro.core.system import DualParSystem
from repro.mpi.runtime import MpiJob, MpiRuntime
from repro.runner.strategies import resolve_strategy
from repro.trace.timeline import ThroughputTimeline
from repro.workloads.base import Workload

__all__ = [
    "ExperimentResult",
    "JobResult",
    "JobSpec",
    "SlimExperimentResult",
    "run_experiment",
]


@dataclass
class JobSpec:
    name: str
    nprocs: int
    workload: Workload
    strategy: str = "vanilla"
    #: Launch this many simulated seconds after the experiment starts.
    delay_s: float = 0.0


@dataclass
class JobResult:
    name: str
    strategy: str
    nprocs: int
    start_s: float
    end_s: float
    io_time_s: float
    compute_time_s: float
    bytes_read: int
    bytes_written: int

    @property
    def elapsed_s(self) -> float:
        return self.end_s - self.start_s

    @property
    def total_bytes(self) -> int:
        return self.bytes_read + self.bytes_written

    @property
    def throughput_mb_s(self) -> float:
        return self.total_bytes / 1e6 / self.elapsed_s if self.elapsed_s > 0 else 0.0

    @property
    def io_ratio(self) -> float:
        total = self.io_time_s + self.compute_time_s
        return self.io_time_s / total if total > 0 else 0.0


@dataclass
class SlimExperimentResult:
    """The catalogued view of one cell's result: every measurement, none
    of the live simulator, cluster, MPI job objects or timeline.

    The catalog stores it through :mod:`repro.codec`
    (:func:`repro.service.catalog.result_to_dict`).
    """

    jobs: list[JobResult]
    makespan_s: float
    #: Bytes the data servers moved (requested + hole-filled + readahead).
    total_bytes_served: int = 0
    #: DualPar EMC (time, job name, new mode) transitions, if any.
    dualpar_transitions: list[tuple] = field(default_factory=list)
    #: End-of-run metrics snapshot, when the cell ran observed.
    metrics: Optional[dict] = None
    #: (time, kind, phase, target) fault events, when a plan was injected.
    fault_log: list[tuple] = field(default_factory=list)
    #: Guard (time, job, state, reason) transitions, when a guard ran.
    guard_transitions: list[tuple] = field(default_factory=list)
    #: SafetyGovernor.summary() dict, when a guard ran.
    guard_summary: Optional[dict] = None

    @property
    def system_throughput_mb_s(self) -> float:
        total = sum(j.total_bytes for j in self.jobs)
        return total / 1e6 / self.makespan_s if self.makespan_s > 0 else 0.0

    @property
    def total_io_time_s(self) -> float:
        return sum(j.io_time_s for j in self.jobs)

    def job(self, name: str) -> JobResult:
        """The job called ``name`` (:func:`run_experiment` refuses a run in
        which two jobs share a name); ``KeyError`` when there is none."""
        for j in self.jobs:
            if j.name == name:
                return j
        raise KeyError(name)

    @classmethod
    def from_full(cls, res: "SlimExperimentResult") -> "SlimExperimentResult":
        """The catalogued fields of ``res`` (an :class:`ExperimentResult`)."""
        return cls(**{f.name: getattr(res, f.name) for f in fields(cls)})


@dataclass(kw_only=True)
class ExperimentResult(SlimExperimentResult):
    """A run's measurements plus the live objects that produced them."""

    cluster: Any
    runtime: MpiRuntime
    dualpar: Optional[DualParSystem]
    timeline: Optional[ThroughputTimeline]
    mpi_jobs: list[MpiJob]
    #: The observability layer the run used (None for plain runs); its
    #: end-of-run registry snapshot, stamped with final sim time, is
    #: ``metrics``.
    observe: Any = None
    #: The fault injector driving the run (None for nominal runs).
    faults: Any = None
    #: The safety governor guarding the run (None for unguarded runs).
    guard: Any = None


#: The cyclic collector's generation-0 threshold while a simulation runs
#: (the interpreter's default is 700).  A run's events and processes die
#: by refcount, but each collective or DualPar phase keeps segment lists
#: alive, and at the default that live data alone sets off hundreds of
#: young collections per cell that find nothing to free.
GC_GEN0_THRESHOLD = 50_000


class _YoungGenPolicy:
    """The collector thresholds of the simulations running in this process.

    Thresholds are per process, and runs may nest or run in threads: the
    first run to enter saves the caller's thresholds and sets the run's,
    the last to leave restores them, also when a run raises.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._runs = 0
        self._saved = gc.get_threshold()

    @contextmanager
    def held(self) -> Iterator[None]:
        # The last run's cluster graph is cyclic garbage once its result
        # is dropped: free it before this run builds its own, so the two
        # never share the peak.
        gc.collect(1)
        with self._lock:
            if self._runs == 0:
                self._saved = gc.get_threshold()
                gc.set_threshold(GC_GEN0_THRESHOLD, *self._saved[1:])
            self._runs += 1
        try:
            yield
        finally:
            with self._lock:
                self._runs -= 1
                if self._runs == 0:
                    gc.set_threshold(*self._saved)


_GC_POLICY = _YoungGenPolicy()


def _create_files(cluster, specs: list[JobSpec]) -> None:
    sizes: dict[str, int] = {}
    for spec in specs:
        for fspec in spec.workload.files():
            prev = sizes.get(fspec.name)
            if prev is not None:
                if prev != fspec.size:
                    raise ValueError(
                        f"file {fspec.name!r} requested with sizes {prev} and {fspec.size}"
                    )
                continue
            sizes[fspec.name] = fspec.size
            cluster.fs.create(fspec.name, fspec.size)


@_GC_POLICY.held()
def run_experiment(
    specs: list[JobSpec],
    cluster_spec: Optional[ClusterSpec] = None,
    dualpar_config: Optional[DualParConfig] = None,
    timeline_window_s: Optional[float] = None,
    limit_s: float = 1e6,
    observe=None,
    fault_plan=None,
    guard=None,
) -> ExperimentResult:
    """Run ``specs`` on one fresh cluster; return all measurements.

    Jobs with ``delay_s > 0`` start late (the Fig-7 varying-workload
    scenario).  A DualPar system (EMC + recorders) is instantiated iff any
    job uses a dualpar strategy.  ``timeline_window_s`` enables a windowed
    system-throughput series (Fig 7(a)).  ``observe`` is an optional
    :class:`repro.obs.Observability` layer; every component of the run
    publishes its instruments there, and the final registry snapshot is
    returned as ``result.metrics``.  ``fault_plan`` is an optional
    :class:`repro.faults.FaultPlan`; when given, a deterministic
    :class:`repro.faults.FaultInjector` replays it against the cluster.
    ``guard`` is an optional :class:`repro.guard.GuardConfig` (or True
    for defaults); when enabled, a :class:`repro.guard.SafetyGovernor`
    is attached across the stack (budgets, benefit governor, breaker,
    watchdog) and returned as ``result.guard``.

    The run holds the collector at :data:`GC_GEN0_THRESHOLD` and restores
    the caller's thresholds when it returns or raises.
    """
    if not specs:
        raise ValueError("need at least one job spec")
    # Results, governors and the per-job metric series key on the name.
    names = [s.name for s in specs]
    if len(set(names)) < len(names):
        raise ValueError(f"job names must be unique, got {names}")
    cluster = build_cluster(cluster_spec, observe=observe)
    runtime = MpiRuntime(cluster)
    _create_files(cluster, specs)

    dualpar: Optional[DualParSystem] = None
    if any(s.strategy.startswith("dualpar") for s in specs):
        dualpar = DualParSystem(runtime, dualpar_config)

    governor = None
    if guard is not None:
        from repro.guard import GuardConfig, SafetyGovernor

        guard_config = guard if isinstance(guard, GuardConfig) else GuardConfig()
        if guard_config.enabled:
            governor = SafetyGovernor(runtime.sim, guard_config)
            governor.attach(dualpar=dualpar, runtime=runtime, cluster=cluster)

    faults = None
    if fault_plan is not None:
        from repro.faults import FaultInjector

        faults = FaultInjector(cluster, fault_plan, runtime=runtime, dualpar=dualpar)
        faults.install()

    jobs: list[MpiJob] = []
    for spec in specs:
        spec.workload.validate(spec.nprocs)
        factory = resolve_strategy(spec.strategy, dualpar)
        job = runtime.launch(
            spec.name, spec.nprocs, spec.workload, factory, start=spec.delay_s == 0
        )
        jobs.append(job)
        if spec.delay_s > 0:

            def starter(job=job, delay=spec.delay_s):
                yield runtime.sim.timeout(delay)
                job.start()

            runtime.sim.process(starter(), name=f"start-{spec.name}")

    timeline: Optional[ThroughputTimeline] = None
    if timeline_window_s is not None:
        from repro.obs.sampling import PeriodicSampler

        registry = runtime.sim.obs.registry if runtime.sim.obs is not None else None
        timeline = ThroughputTimeline("system", registry=registry)
        state = {"last": 0}

        def probe(now: float) -> None:
            total = sum(j.total_io_bytes() for j in jobs)
            timeline.record(now, total - state["last"])
            state["last"] = total

        PeriodicSampler(runtime.sim, timeline_window_s, probe, name="timeline")

    for job in jobs:
        runtime.sim.run_until_event(job.done, limit=limit_s)
    makespan = max(j.end_time for j in jobs) - min(j.start_time for j in jobs)

    results = [
        JobResult(
            name=j.name,
            strategy=s.strategy,
            nprocs=j.nprocs,
            start_s=j.start_time,
            end_s=j.end_time,
            io_time_s=sum(p.metrics.io_time_s for p in j.procs),
            compute_time_s=sum(p.metrics.compute_time_s for p in j.procs),
            bytes_read=sum(p.metrics.bytes_read for p in j.procs),
            bytes_written=sum(p.metrics.bytes_written for p in j.procs),
        )
        for j, s in zip(jobs, specs)
    ]
    return ExperimentResult(
        jobs=results,
        makespan_s=makespan,
        total_bytes_served=cluster.total_bytes_served(),
        dualpar_transitions=list(dualpar.transitions) if dualpar else [],
        metrics=observe.snapshot(runtime.sim.now) if observe is not None else None,
        fault_log=list(faults.log) if faults is not None else [],
        guard_transitions=list(governor.transitions) if governor else [],
        guard_summary=governor.summary() if governor else None,
        cluster=cluster,
        runtime=runtime,
        dualpar=dualpar,
        timeline=timeline,
        mpi_jobs=jobs,
        observe=observe,
        faults=faults,
        guard=governor,
    )
