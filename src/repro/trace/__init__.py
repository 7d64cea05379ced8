"""Tracing: blktrace-style disk access records and throughput timelines.

The paper uses Blktrace to show *where* the disk head travelled under each
strategy (Figs 1(c,d) and 6) and windowed throughput to show mode switching
(Fig 7).  These recorders regenerate both.

Only traced runs (``ClusterSpec(trace_disks=True)``) record disk
accesses, so :mod:`repro.trace.blktrace` loads on first use of its names.
"""

from __future__ import annotations

import importlib
from typing import TYPE_CHECKING, Any

from repro.trace.timeline import ThroughputTimeline

if TYPE_CHECKING:  # pragma: no cover
    from repro.trace.blktrace import AccessRecord, BlkTrace

__all__ = ["AccessRecord", "BlkTrace", "ThroughputTimeline"]


def __getattr__(name: str) -> Any:
    if name in ("AccessRecord", "BlkTrace"):
        return getattr(importlib.import_module("repro.trace.blktrace"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
