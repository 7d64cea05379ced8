"""Experiment harness: launch jobs under a strategy, measure, tabulate.

- :mod:`repro.runner.strategies` -- the strategy table: each named I/O
  strategy with its description and engine.
- :mod:`repro.runner.experiment` -- :func:`run_experiment` builds a
  cluster, pre-creates files, launches jobs (optionally staggered), runs
  the simulation, and returns an :class:`ExperimentResult`: the
  catalogued :class:`SlimExperimentResult` plus the run's live objects.
- :mod:`repro.runner.parallel` -- :class:`ExperimentSpec` cells, their
  fingerprints, and :func:`run_experiments` over the result catalog.
- :mod:`repro.runner.results` -- plain-text table rendering for bench
  output.
- :mod:`repro.runner.calibrate` -- compute-time calibration to hit a
  target I/O ratio, as the paper does for the demo program.
"""

from repro.runner.experiment import (
    ExperimentResult,
    JobResult,
    JobSpec,
    SlimExperimentResult,
    run_experiment,
)
from repro.runner.parallel import ExperimentSpec, WorkerCellError, run_experiments, run_spec
from repro.runner.results import format_table
from repro.runner.strategies import STRATEGIES, resolve_strategy
from repro.runner.calibrate import calibrate_compute_for_ratio

__all__ = [
    "ExperimentResult",
    "ExperimentSpec",
    "JobResult",
    "JobSpec",
    "STRATEGIES",
    "SlimExperimentResult",
    "WorkerCellError",
    "calibrate_compute_for_ratio",
    "format_table",
    "resolve_strategy",
    "run_experiment",
    "run_experiments",
    "run_spec",
]
