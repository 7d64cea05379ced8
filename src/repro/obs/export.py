"""Exporters: metrics JSON, Darshan-style per-rank summary, Chrome trace.

Three consumption paths for one observed run:

- :func:`write_metrics` -- the registry snapshot as a JSON document CI
  can diff and gate on;
- :func:`darshan_summary` -- an always-on-style per-rank I/O
  characterization table (counters per rank, in the spirit of Darshan's
  job summary);
- :func:`chrome_trace_events` / :func:`write_chrome_trace` -- the span
  log as Chrome ``trace_event`` JSON, loadable in ``chrome://tracing``
  and https://ui.perfetto.dev for visual inspection of a whole
  experiment.

Timestamps are simulated seconds converted to trace microseconds;
nothing here reads a wall clock.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterable, Optional, Union

from repro.obs.tracing import SpanRecord, Tracer

#: The one process a Chrome trace of a simulation shows.
TRACE_PID = 1
TRACE_PROCESS_NAME = "repro-sim"

if TYPE_CHECKING:  # pragma: no cover
    from repro.runner.experiment import ExperimentResult

__all__ = [
    "chrome_trace_events",
    "darshan_summary",
    "merge_metric_snapshots",
    "write_chrome_trace",
    "write_metrics",
]


# -- metrics ------------------------------------------------------------


def write_metrics(path: Union[str, Path], snapshot: dict) -> Path:
    """Write one registry snapshot (or a merged snapshot) as JSON."""
    path = Path(path)
    path.write_text(json.dumps(snapshot, indent=2, sort_keys=True) + "\n")
    return path


def merge_metric_snapshots(snapshots: dict[str, dict]) -> dict:
    """Combine per-cell snapshots (label -> snapshot) into one document.

    Counters are additionally summed across cells under ``"merged"`` --
    the cross-cell totals a sweep-level gate wants -- while the full
    per-cell snapshots are preserved under ``"cells"`` (gauges,
    histograms, and timeseries of independent simulations are not
    meaningfully addable).
    """
    merged_counters: dict[str, float] = {}
    for label in sorted(snapshots):
        snap = snapshots[label]
        for name, value in sorted(snap.get("counters", {}).items()):
            merged_counters[name] = merged_counters.get(name, 0) + value
    return {
        "cells": {label: snapshots[label] for label in sorted(snapshots)},
        "merged": {"counters": merged_counters},
    }


# -- Darshan-style per-rank summary ------------------------------------


def darshan_summary(result: "ExperimentResult") -> str:
    """Per-rank I/O characterization table for one experiment.

    One row per MPI rank with the cumulative ADIO counters the paper's
    instrumentation keeps -- the same shape as a Darshan job summary's
    per-rank section.
    """
    from repro.runner.results import format_table

    rows: list[list] = []
    for job in result.mpi_jobs:
        for proc in job.procs:
            m = proc.metrics
            rows.append(
                [
                    job.name,
                    proc.rank,
                    proc.node_id,
                    m.n_io_calls,
                    m.bytes_read,
                    m.bytes_written,
                    m.io_time_s,
                    m.compute_time_s,
                    f"{m.io_ratio:.0%}",
                ]
            )
    return format_table(
        [
            "job",
            "rank",
            "node",
            "io calls",
            "bytes read",
            "bytes written",
            "io (s)",
            "compute (s)",
            "io ratio",
        ],
        rows,
        title="per-rank I/O summary",
        float_fmt="{:.3f}",
    )


# -- Chrome trace_event JSON -------------------------------------------


def _track_ids(spans: Iterable[SpanRecord]) -> dict[str, int]:
    """Stable track -> tid assignment in first-recorded order."""
    tids: dict[str, int] = {}
    for rec in spans:
        if rec.track not in tids:
            tids[rec.track] = len(tids) + 1
    return tids


def chrome_trace_events(
    tracer: Tracer, registry_snapshot: Optional[dict] = None
) -> list[dict]:
    """Convert recorded spans to Chrome ``trace_event`` dicts.

    Synchronous spans become ``"X"`` complete events; async spans become
    ``"b"``/``"e"`` pairs keyed by span id so overlapping operations on
    one track render correctly.  When a ``registry_snapshot`` is given,
    its timeseries are emitted as ``"C"`` counter events so queue depths
    and throughput ride along in the same timeline.
    """
    pid = TRACE_PID
    spans = list(tracer.spans)
    tids = _track_ids(spans)
    events: list[dict] = [
        {
            "ph": "M",
            "pid": pid,
            "tid": 0,
            "name": "process_name",
            "args": {"name": TRACE_PROCESS_NAME},
        }
    ]
    for track, tid in tids.items():
        events.append(
            {
                "ph": "M",
                "pid": pid,
                "tid": tid,
                "name": "thread_name",
                "args": {"name": track},
            }
        )
    for rec in spans:
        tid = tids[rec.track]
        t1 = rec.t1 if rec.t1 is not None else rec.t0
        args: dict[str, Any] = dict(rec.args) if rec.args else {}
        if rec.trace_id:
            args["trace"] = rec.trace_id
        base = {
            "pid": pid,
            "tid": tid,
            "name": rec.name,
            "cat": rec.cat,
        }
        if args:
            base["args"] = args
        if rec.async_:
            ident = f"0x{rec.span_id:x}"
            events.append({**base, "ph": "b", "id": ident, "ts": rec.t0 * 1e6})
            events.append({**base, "ph": "e", "id": ident, "ts": t1 * 1e6})
        else:
            events.append(
                {**base, "ph": "X", "ts": rec.t0 * 1e6, "dur": (t1 - rec.t0) * 1e6}
            )
    for name, cat, track, trace, t, args in tracer.instants:
        tid = tids.get(track, 0)
        ev: dict[str, Any] = {
            "ph": "i",
            "s": "t",
            "pid": pid,
            "tid": tid,
            "name": name,
            "cat": cat,
            "ts": t * 1e6,
        }
        merged = dict(args) if args else {}
        if trace:
            merged["trace"] = trace
        if merged:
            ev["args"] = merged
        events.append(ev)
    if registry_snapshot:
        for name in sorted(registry_snapshot.get("timeseries", {})):
            for t, v in registry_snapshot["timeseries"][name]:
                events.append(
                    {
                        "ph": "C",
                        "pid": pid,
                        "name": name,
                        "ts": t * 1e6,
                        "args": {"value": v},
                    }
                )
    return events


def write_chrome_trace(path: Union[str, Path], events: list[dict]) -> Path:
    """Write trace events as a Perfetto/chrome://tracing-loadable file."""
    path = Path(path)
    doc = {"traceEvents": events, "displayTimeUnit": "ms"}
    path.write_text(json.dumps(doc) + "\n")
    return path
