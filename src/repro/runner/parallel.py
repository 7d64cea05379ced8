"""Independent experiment cells: run many, remember each once.

The benchmark grids run dozens of *independent* ``run_experiment`` cells:
each cell builds its own :class:`~repro.sim.core.Simulator`, so no state
crosses cells and running them in separate processes cannot change any
result.  This module provides:

- :class:`ExperimentSpec` -- a picklable description of one cell (the
  exact arguments of :func:`repro.runner.experiment.run_experiment`);
- :class:`SlimExperimentResult` -- the catalogued result of one cell
  (:class:`~repro.runner.experiment.ExperimentResult` without its live
  simulator objects);
- :func:`experiment_fingerprint` -- the content address of one cell
  (workloads, cluster spec, strategy, config, code version);
- :func:`run_spec` -- evaluate one cell in this process;
- :func:`run_experiments` -- evaluate many cells.  A cell already in the
  result catalog (:mod:`repro.service.catalog`, the store ``repro serve``
  writes too) is served from its record; the rest run inline or on a
  :class:`repro.service.worker.WorkerPool`, and each is catalogued.
  Re-running a sweep only recomputes changed cells.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Optional

from repro.cluster import ClusterSpec
from repro.core.config import DualParConfig
from repro.runner.experiment import (
    ExperimentResult,
    JobSpec,
    SlimExperimentResult,
    run_experiment,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults import FaultPlan

__all__ = [
    "CacheStats",
    "ExperimentSpec",
    "SlimExperimentResult",
    "StaleCodeError",
    "WorkerCellError",
    "experiment_fingerprint",
    "run_experiments",
    "run_spec",
]


class WorkerCellError(RuntimeError):
    """An experiment cell raised in a pool worker, or kept killing its
    worker until the pool gave up; carries the child's traceback text."""

    def __init__(self, label: str, traceback_text: str) -> None:
        self.label = label
        self.traceback_text = traceback_text
        super().__init__(
            f"experiment cell {label or '<unlabelled>'!r} failed in worker:\n"
            f"{traceback_text}"
        )


class StaleCodeError(RuntimeError):
    """The repro source changed after this process imported it."""


@dataclass(frozen=True)
class ExperimentSpec:
    """One independent experiment cell (the arguments of run_experiment)."""

    specs: tuple[JobSpec, ...]
    cluster_spec: Optional[ClusterSpec] = None
    dualpar_config: Optional[DualParConfig] = None
    timeline_window_s: Optional[float] = None
    limit_s: float = 1e6
    #: Attach an observability layer to the cell's simulator and carry the
    #: end-of-run metrics snapshot back in the slim result.
    observe: bool = False
    #: Deterministic fault schedule replayed against the cell (or None).
    fault_plan: Optional[FaultPlan] = None
    #: Safety-governor config (repro.guard.GuardConfig) or None to run
    #: unguarded; part of the cache fingerprint.
    guard: Optional[Any] = None
    #: Free-form display label; not part of the cache fingerprint.
    label: str = ""

    def __post_init__(self) -> None:
        # Accept lists for convenience; store a tuple so the spec hashes.
        if not isinstance(self.specs, tuple):
            object.__setattr__(self, "specs", tuple(self.specs))


@dataclass
class CacheStats:
    """Hit/miss accounting for the most recent :func:`run_experiments`."""

    hits: int = 0
    misses: int = 0


#: Stats of the most recent run_experiments() call (for tests/reporting).
LAST_RUN_STATS = CacheStats()


# -- fingerprinting -----------------------------------------------------

#: The repro package directory (this file is repro/runner/parallel.py).
_PKG_ROOT = Path(__file__).parent.parent

_CODE_FINGERPRINT: Optional[str] = None


def _code_files() -> list[str]:
    """Every source file of the repro package: Python and the C kernel."""
    return sorted(
        os.path.join(root, name)
        for root, _, names in os.walk(_PKG_ROOT)
        for name in names
        if name.endswith((".py", ".c"))
    )


def _code_signature() -> tuple:
    """Every source file's ``(path, mtime_ns, size)``."""
    return tuple((p, st.st_mtime_ns, st.st_size) for p in _code_files() for st in [os.stat(p)])


#: The source signature when this process imported the package.
_LOADED_SIGNATURE = _code_signature()


def _import_package() -> None:
    """Import every Python module of the repro package.  Modules that only
    some runs use (fault injection, observed runs' export, disk traces)
    load on first use, so without this a process could hash a file and
    later run an edited copy of it."""
    for path in _code_files():
        if not path.endswith(".py"):
            continue
        parts = Path(os.path.relpath(path, _PKG_ROOT)).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        importlib.import_module(".".join(("repro", *parts)))


def _code_fingerprint() -> str:
    """Hash of every source file in the repro package: a new code version
    invalidates all catalogued results.  Taken once per process, after
    every module is loaded, it names the code the process (and a forked
    worker) runs; files edited since import would name code it does not
    run, so that raises instead."""
    global _CODE_FINGERPRINT
    if _CODE_FINGERPRINT is None:
        _import_package()
        h = hashlib.sha256()
        for path in _code_files():
            h.update(os.path.relpath(path, _PKG_ROOT).encode())
            h.update(Path(path).read_bytes())
        if _code_signature() != _LOADED_SIGNATURE:  # after reading: no edit slips by
            raise StaleCodeError(f"the repro source under {_PKG_ROOT} changed after "
                                 "this process imported it; restart to catalogue cells")
        _CODE_FINGERPRINT = h.hexdigest()
    return _CODE_FINGERPRINT


def _canonical(obj: Any) -> Any:
    """Reduce obj to a deterministic, repr-stable structure."""
    if obj is None or isinstance(obj, (bool, int, float, str, bytes)):
        return obj
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return (
            type(obj).__qualname__,
            tuple(
                (f.name, _canonical(getattr(obj, f.name)))
                for f in dataclasses.fields(obj)
            ),
        )
    if isinstance(obj, dict):
        return ("dict", tuple((k, _canonical(v)) for k, v in sorted(obj.items())))
    if isinstance(obj, (list, tuple)):
        return ("seq", tuple(_canonical(v) for v in obj))
    if hasattr(obj, "__dict__"):
        # Workloads and other plain config objects: class + attributes.
        return (
            type(obj).__qualname__,
            tuple((k, _canonical(v)) for k, v in sorted(vars(obj).items())),
        )
    return repr(obj)


def experiment_fingerprint(spec: ExperimentSpec) -> str:
    """Deterministic key for one cell: parameters + code version."""
    # A disabled guard config runs bit-identically to no guard at all
    # (run_experiment never builds the governor), so both share a key.
    guard = spec.guard
    if guard is not None and not getattr(guard, "enabled", True):
        guard = None
    payload = _canonical(
        (
            tuple(spec.specs),
            spec.cluster_spec,
            spec.dualpar_config,
            spec.timeline_window_s,
            spec.limit_s,
            # Observed cells carry a metrics snapshot a plain cached cell
            # would lack, so the flag must key the cache.
            spec.observe,
            spec.fault_plan,
            # Guarded cells behave differently (budgets, governor); the
            # config must key the cache.
            guard,
        )
    )
    h = hashlib.sha256()
    h.update(_code_fingerprint().encode())
    h.update(repr(payload).encode())
    return h.hexdigest()


# -- execution ----------------------------------------------------------


def run_spec(spec: ExperimentSpec) -> ExperimentResult:
    """Evaluate one cell from scratch in this process."""
    observe = None
    if spec.observe:
        from repro.obs import Observability

        observe = Observability()
    return run_experiment(
        list(spec.specs),
        cluster_spec=spec.cluster_spec,
        dualpar_config=spec.dualpar_config,
        timeline_window_s=spec.timeline_window_s,
        limit_s=spec.limit_s,
        observe=observe,
        fault_plan=spec.fault_plan,
        guard=spec.guard,
    )


def _run_spec(spec: ExperimentSpec) -> SlimExperimentResult:
    """Worker entry point: evaluate one cell, keep its catalogued view."""
    return SlimExperimentResult.from_full(run_spec(spec))


def _run_pooled(specs: list[ExperimentSpec], jobs: int) -> list[tuple]:
    """Run cells on a :class:`~repro.service.worker.WorkerPool`; returns
    each cell's ``done`` event, in order.  A failed cell raises
    :class:`WorkerCellError`."""
    import queue

    from repro.service.worker import WorkerPool

    events: queue.SimpleQueue = queue.SimpleQueue()
    done: list = [None] * len(specs)
    pool = WorkerPool(min(jobs, len(specs)), deliver=events.put)
    pool.start()
    try:
        for i, spec in enumerate(specs):
            pool.submit(i, spec)
        while None in done:
            event = events.get()
            if event[0] == "failed":
                raise WorkerCellError(specs[event[1]].label, event[2])
            if event[0] == "done":
                done[event[1]] = event
    finally:
        pool.stop(drain=False)
    return done


def _run_inline(spec: ExperimentSpec) -> tuple:
    """Run one cell in this process; returns a pool-shaped ``done`` event."""
    from repro.service.catalog import result_to_dict

    t0 = time.perf_counter()
    result = result_to_dict(_run_spec(spec))
    return ("done", None, result, None, time.perf_counter() - t0, 1)


def run_experiments(
    specs: list[ExperimentSpec],
    jobs: Optional[int] = None,
    cache: bool = True,
    cache_dir: Optional[Path] = None,
) -> list[SlimExperimentResult]:
    """Evaluate independent experiment cells, in parallel and memoised.

    Results come back in input order.  With ``cache``, cells already in
    the result catalog at ``cache_dir`` (default:
    :func:`~repro.service.catalog.default_catalog_dir`) are served from
    their records without simulating, and every computed cell is
    catalogued.  The remaining cells fan out over a
    :class:`~repro.service.worker.WorkerPool` of ``jobs`` workers
    (default: all CPUs); ``jobs=1`` runs inline and raises a failing
    cell's own exception.  Every result passes through the record codec,
    so a hit equals a miss.
    """
    from repro.service.catalog import CatalogRecord, ResultCatalog, result_from_dict

    global LAST_RUN_STATS
    stats = CacheStats()
    LAST_RUN_STATS = stats
    if jobs is None:
        jobs = os.cpu_count() or 1
    catalog = ResultCatalog(cache_dir) if cache else None

    results: list[Optional[dict]] = [None] * len(specs)
    fingerprints = [experiment_fingerprint(s) if cache else "" for s in specs]
    misses: list[int] = []
    for i, fingerprint in enumerate(fingerprints):
        record = catalog.get(fingerprint) if catalog is not None else None
        if record is not None:
            results[i] = record.result
        else:
            misses.append(i)
    stats.hits = len(specs) - len(misses)
    stats.misses = len(misses)

    if len(misses) <= 1 or jobs <= 1:
        done = [_run_inline(specs[i]) for i in misses]
    else:
        done = _run_pooled([specs[i] for i in misses], jobs)
    for i, (_, _, result, worker_id, wall_s, attempts) in zip(misses, done):
        results[i] = result
        if catalog is None:
            continue
        spec = specs[i]
        jobs_run = [{"name": j.name, "nprocs": j.nprocs, "strategy": j.strategy}
                    for j in spec.specs]
        record = CatalogRecord(
            fingerprint=fingerprints[i],
            code_version=_code_fingerprint(),
            submission={"label": spec.label, "jobs": jobs_run},
            result=result,
            provenance={"source": "runner", "worker_id": worker_id, "attempts": attempts,
                        "wall_time_s": wall_s, "committed_unix": time.time()},
        )
        try:
            catalog.put(record)
        except OSError:
            pass  # the store is best-effort; never fail the experiment
    return [result_from_dict(r) for r in results]  # type: ignore[arg-type]
