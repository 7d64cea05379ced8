"""Versioned submission schema for the experiment service.

An :class:`ExperimentSubmission` is the JSON shape a tenant sends to the
coordinator: the experiment described in *catalogued* terms (workload by
name, cluster knobs, strategy, optional fault plan / guard config)
rather than as live Python objects, so every submission round-trips
through JSON, rejects unknown fields (like :class:`repro.faults.FaultPlan`
does), and fingerprints deterministically.

``to_experiment_spec()`` lowers a submission onto the existing harness:
the same workload builders the CLI uses, :func:`repro.cluster.paper_spec`,
and :class:`repro.runner.ExperimentSpec` -- so a catalogued service run
is, by construction, the same simulation a direct
:func:`repro.runner.run_experiment` call would perform, and the service
reuses :func:`repro.runner.parallel.experiment_fingerprint` (code version
included) as its content address.

Versioning: ``schema_version`` is required on the wire; a submission
carrying any other version is rejected outright (a coordinator must
never guess at half-understood fields).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields
from typing import Any, Mapping, Optional

from repro.faults import FaultPlan
from repro.guard import GuardConfig
from repro.iosched import SCHEDULERS
from repro.workloads import WORKLOADS, build_workload, normalize_op

__all__ = [
    "SCHEMA_VERSION",
    "ClusterSubmission",
    "ExperimentSubmission",
    "JobSubmission",
    "guard_from_dict",
    "guard_to_dict",
]

#: The one submission shape this coordinator understands.
SCHEMA_VERSION = 1



def _reject_unknown(raw: Mapping[str, Any], known: frozenset, what: str) -> None:
    unknown = set(raw) - known
    if unknown:
        raise ValueError(f"unknown {what} fields: {sorted(unknown)}")


def guard_to_dict(guard: GuardConfig) -> dict:
    """A :class:`~repro.guard.GuardConfig` as a plain JSON-able dict."""
    return asdict(guard)


def guard_from_dict(raw: Mapping[str, Any]) -> GuardConfig:
    """Parse a guard config, rejecting unknown fields."""
    _reject_unknown(raw, _GUARD_FIELDS, "GuardConfig")
    return GuardConfig(**raw)


_GUARD_FIELDS = frozenset(f.name for f in fields(GuardConfig))


@dataclass(frozen=True)
class JobSubmission:
    """One MPI job of a submitted experiment, in catalogued terms."""

    name: str
    workload: str
    nprocs: int = 64
    size_mb: int = 64
    op: str = "R"
    strategy: str = "vanilla"
    #: Launch this many simulated seconds after the experiment starts.
    delay_s: float = 0.0

    def __post_init__(self) -> None:
        from repro.runner.strategies import STRATEGY_NAMES

        if not self.name:
            raise ValueError("job name must be non-empty")
        if self.nprocs <= 0:
            raise ValueError("nprocs must be positive")
        if self.size_mb <= 0:
            raise ValueError("size_mb must be positive")
        if self.delay_s < 0:
            raise ValueError("delay_s must be >= 0")
        if self.strategy not in STRATEGY_NAMES:
            raise ValueError(
                f"unknown strategy {self.strategy!r} (know {STRATEGY_NAMES})"
            )
        # Canonicalise the direction at the edge so "read"/"r"/"R" all
        # fingerprint (and round-trip) identically.
        object.__setattr__(self, "op", normalize_op(self.op))
        # Validate the workload name eagerly: a queued submission must
        # never explode in a worker over a typo the coordinator could
        # have rejected at submit time.
        if self.workload not in WORKLOADS:
            raise ValueError(
                f"unknown workload {self.workload!r} "
                f"(know {sorted(WORKLOADS)})"
            )


@dataclass(frozen=True)
class ClusterSubmission:
    """The cluster shape of a submitted experiment (paper_spec knobs)."""

    compute_nodes: int = 32
    data_servers: int = 9
    io_scheduler: str = "cfq"
    stripe_unit: int = 64 * 1024

    def __post_init__(self) -> None:
        if self.compute_nodes <= 0 or self.data_servers <= 0:
            raise ValueError("compute_nodes/data_servers must be positive")
        if self.io_scheduler not in SCHEDULERS:
            raise ValueError(
                f"unknown io_scheduler {self.io_scheduler!r} (know {sorted(SCHEDULERS)})"
            )
        if self.stripe_unit <= 0:
            raise ValueError("stripe_unit must be positive")


@dataclass(frozen=True)
class ExperimentSubmission:
    """A complete, validated experiment submission (wire schema v1)."""

    jobs: tuple[JobSubmission, ...]
    schema_version: int = SCHEMA_VERSION
    tenant: str = "default"
    label: str = ""
    cluster: ClusterSubmission = field(default_factory=ClusterSubmission)
    #: DualPar per-process cache quota (KB) -> DualParConfig, or None.
    quota_kb: Optional[int] = None
    limit_s: float = 1e6
    #: Attach the observability layer; the catalog record then carries
    #: the end-of-run metrics snapshot.
    observe: bool = False
    fault_plan: Optional[FaultPlan] = None
    guard: Optional[GuardConfig] = None

    def __post_init__(self) -> None:
        if self.schema_version != SCHEMA_VERSION:
            raise ValueError(
                f"unsupported schema_version {self.schema_version!r} "
                f"(this coordinator speaks version {SCHEMA_VERSION})"
            )
        if not isinstance(self.jobs, tuple):
            object.__setattr__(self, "jobs", tuple(self.jobs))
        if not self.jobs:
            raise ValueError("a submission needs at least one job")
        names = [j.name for j in self.jobs]
        if len(set(names)) < len(names):
            raise ValueError(f"job names must be unique, got {names}")
        if not self.tenant:
            raise ValueError("tenant must be non-empty")
        if self.quota_kb is not None and self.quota_kb <= 0:
            raise ValueError("quota_kb must be positive")
        if self.limit_s <= 0:
            raise ValueError("limit_s must be positive")

    # -- JSON round-trip -------------------------------------------------

    def to_dict(self) -> dict:
        payload = {
            "schema_version": self.schema_version,
            "tenant": self.tenant,
            "label": self.label,
            "jobs": [asdict(j) for j in self.jobs],
            "cluster": asdict(self.cluster),
            "quota_kb": self.quota_kb,
            "limit_s": self.limit_s,
            "observe": self.observe,
            "fault_plan": self.fault_plan.to_dict() if self.fault_plan else None,
            "guard": guard_to_dict(self.guard) if self.guard else None,
        }
        # JSON-normal form (tuples become lists) so the dict a catalog
        # record stores compares equal whether it lived in memory or went
        # through the wire and the disk.
        return json.loads(json.dumps(payload))

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "ExperimentSubmission":
        if "schema_version" not in d:
            raise ValueError("submission is missing schema_version")
        _reject_unknown(d, _SUBMISSION_FIELDS, "ExperimentSubmission")
        jobs = []
        for raw in d.get("jobs", ()):
            _reject_unknown(raw, _JOB_FIELDS, "JobSubmission")
            jobs.append(JobSubmission(**raw))
        raw_cluster = d.get("cluster") or {}
        _reject_unknown(raw_cluster, _CLUSTER_FIELDS, "ClusterSubmission")
        raw_plan = d.get("fault_plan")
        if raw_plan:
            # FaultPlan.from_dict polices event/retry fields but tolerates
            # stray top-level keys; the service wire schema does not.
            _reject_unknown(raw_plan, _PLAN_FIELDS, "FaultPlan")
        raw_guard = d.get("guard")
        return cls(
            schema_version=d["schema_version"],
            tenant=d.get("tenant", "default"),
            label=d.get("label", ""),
            jobs=tuple(jobs),
            cluster=ClusterSubmission(**raw_cluster),
            quota_kb=d.get("quota_kb"),
            limit_s=d.get("limit_s", 1e6),
            observe=bool(d.get("observe", False)),
            fault_plan=FaultPlan.from_dict(raw_plan) if raw_plan else None,
            guard=guard_from_dict(raw_guard) if raw_guard else None,
        )

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentSubmission":
        return cls.from_dict(json.loads(text))

    @classmethod
    def load(cls, path: Any) -> "ExperimentSubmission":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))

    # -- lowering onto the harness ---------------------------------------

    @property
    def declared_bytes(self) -> int:
        """The data volume a submission announces; what tenant quotas and
        coordinator backpressure charge against the guard budget."""
        return sum(j.size_mb for j in self.jobs) * 1024 * 1024

    def to_experiment_spec(self) -> Any:
        """Lower to the :class:`repro.runner.ExperimentSpec` this
        submission denotes -- the exact cell a direct
        ``run_experiment`` call with the same knobs would execute."""
        from repro.cluster import paper_spec
        from repro.core.config import DualParConfig
        from repro.runner import ExperimentSpec, JobSpec

        job_specs = [
            JobSpec(
                j.name,
                j.nprocs,
                build_workload(j.workload, j.size_mb, j.op, j.nprocs),
                strategy=j.strategy,
                delay_s=j.delay_s,
            )
            for j in self.jobs
        ]
        return ExperimentSpec(
            tuple(job_specs),
            cluster_spec=paper_spec(
                n_compute_nodes=self.cluster.compute_nodes,
                n_data_servers=self.cluster.data_servers,
                io_scheduler=self.cluster.io_scheduler,
                stripe_unit=self.cluster.stripe_unit,
            ),
            dualpar_config=(
                DualParConfig(quota_bytes=self.quota_kb * 1024)
                if self.quota_kb is not None
                else None
            ),
            limit_s=self.limit_s,
            observe=self.observe,
            fault_plan=self.fault_plan,
            guard=self.guard,
            label=self.label,
        )

    def fingerprint(self) -> str:
        """The submission's content address: the experiment fingerprint
        of the lowered cell (parameters + code version)."""
        from repro.runner.parallel import experiment_fingerprint

        return experiment_fingerprint(self.to_experiment_spec())


_SUBMISSION_FIELDS = frozenset(f.name for f in fields(ExperimentSubmission))
_PLAN_FIELDS = frozenset(f.name for f in fields(FaultPlan))
_JOB_FIELDS = frozenset(f.name for f in fields(JobSubmission))
_CLUSTER_FIELDS = frozenset(f.name for f in fields(ClusterSubmission))
