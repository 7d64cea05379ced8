"""Experiment harness: launch jobs under a strategy, measure, tabulate.

- :mod:`repro.runner.strategies` -- named I/O strategies ('vanilla',
  'collective', 'prefetch', 'dualpar', 'dualpar-forced') mapped to engine
  factories.
- :mod:`repro.runner.experiment` -- :func:`run_experiment` builds a
  cluster, pre-creates files, launches jobs (optionally staggered), runs
  the simulation, and returns per-job and system-level measurements.
- :mod:`repro.runner.results` -- plain-text table rendering for bench
  output.
- :mod:`repro.runner.calibrate` -- compute-time calibration to hit a
  target I/O ratio, as the paper does for the demo program.
"""

from repro.runner.experiment import ExperimentResult, JobResult, JobSpec, run_experiment
from repro.runner.parallel import (
    ExperimentSpec,
    SlimExperimentResult,
    WorkerCellError,
    run_experiments,
    run_spec,
)
from repro.runner.results import format_table
from repro.runner.strategies import STRATEGY_NAMES, resolve_strategy
from repro.runner.calibrate import calibrate_compute_for_ratio

__all__ = [
    "ExperimentResult",
    "ExperimentSpec",
    "JobResult",
    "JobSpec",
    "STRATEGY_NAMES",
    "SlimExperimentResult",
    "WorkerCellError",
    "calibrate_compute_for_ratio",
    "format_table",
    "resolve_strategy",
    "run_experiment",
    "run_experiments",
    "run_spec",
]
