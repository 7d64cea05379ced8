"""Unified observability: metrics, span tracing, and trace export.

The simulation-native measurement substrate (think Darshan for the
simulated cluster): components register views of the counters they
already keep, and record the few quantities they do not keep (disk
timing sums, histograms, some time series), in one
:class:`MetricsRegistry`; request flows are recorded as spans by one
:class:`Tracer` -- all stamped with *simulated* time, never wall time.

Usage::

    from repro.obs import Observability

    obs = Observability()
    result = run_experiment(specs, observe=obs)
    snap = obs.snapshot(result.sim_now)
    write_metrics("metrics.json", snap)
    write_chrome_trace("trace.json", chrome_trace_events(obs.tracer))

Off by default and zero-overhead when disabled: a plain ``Simulator()``
has ``obs`` ``None``, and every instrumented component checks
``sim.obs is not None`` once at construction: when observed it
registers its views and creates its recorded instruments; otherwise it
registers nothing and holds ``None`` in place of its instruments and
tracer.  Views are read only at snapshot time, so they cost nothing per
event in either case.  Observing a run never schedules events, reads
wall clocks, or consumes randomness, so an observed run is
bit-identical to a plain one.

Only observed runs trace spans or export, so :mod:`repro.obs.tracing`
and :mod:`repro.obs.export` load when an :class:`Observability` is built
or one of their names is first read from this package.
"""

from __future__ import annotations

import importlib
from typing import TYPE_CHECKING, Any

from repro.obs.registry import (
    Counter,
    EventLog,
    Histogram,
    MetricsRegistry,
    TimeSeries,
)
from repro.obs.sampling import PeriodicSampler

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.export import (
        chrome_trace_events,
        darshan_summary,
        merge_metric_snapshots,
        write_chrome_trace,
        write_metrics,
    )
    from repro.obs.tracing import Span, SpanRecord, Tracer
    from repro.sim.core import Simulator

__all__ = [
    "Counter",
    "EventLog",
    "Histogram",
    "MetricsRegistry",
    "Observability",
    "PeriodicSampler",
    "Span",
    "SpanRecord",
    "TimeSeries",
    "Tracer",
    "chrome_trace_events",
    "darshan_summary",
    "merge_metric_snapshots",
    "write_chrome_trace",
    "write_metrics",
]


class Observability:
    """One registry plus one tracer, bound to one simulator.

    Pass an instance as ``Simulator(observe=...)`` -- or, higher up,
    ``run_experiment(..., observe=...)`` / ``build_cluster(spec,
    observe=...)`` -- and every component of that simulation registers
    its views and instruments here.
    """

    def __init__(self) -> None:
        from repro.obs.tracing import Tracer

        self.registry = MetricsRegistry()
        self.tracer = Tracer()

    def bind(self, sim: "Simulator") -> None:
        """Attach the tracer to ``sim``'s clock (called by Simulator)."""
        self.tracer.bind(sim)

    def snapshot(self, now: float) -> dict:
        """The registry snapshot stamped with simulated time ``now``."""
        return self.registry.snapshot(now)


def __getattr__(name: str) -> Any:
    """The names of :mod:`repro.obs.tracing` and :mod:`repro.obs.export`,
    loaded on first use."""
    if name in ("Span", "SpanRecord", "Tracer"):
        module = "tracing"
    elif name in ("chrome_trace_events", "darshan_summary", "merge_metric_snapshots",
                  "write_chrome_trace", "write_metrics"):
        module = "export"
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"repro.obs.{module}"), name)
