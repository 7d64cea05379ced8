"""Windowed throughput timelines (Fig 7(a)).

Samples live in a :class:`repro.obs.registry.TimeSeries` (``(time,
nbytes)`` completion events), so a timeline can be registered into a
:class:`~repro.obs.registry.MetricsRegistry` as ``timeline.<name>``
rather than keeping private parallel lists.
"""

from __future__ import annotations

import numpy as np

from repro.obs.registry import TimeSeries

__all__ = ["ThroughputTimeline"]


class ThroughputTimeline:
    """Accumulates (time, bytes) completion samples; reports MB/s series."""

    def __init__(self, name: str = "throughput", registry=None):
        self.name = name
        self._series = TimeSeries(f"timeline.{name}")
        if registry is not None:
            registry.attach(self._series.name, self._series)

    def record(self, time: float, nbytes: int) -> None:
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        self._series.record(time, nbytes)

    @property
    def total_bytes(self) -> int:
        return int(sum(v for _, v in self._series.samples))

    def series(self, window_s: float = 1.0, t_end: float | None = None) -> list[tuple[float, float]]:
        """[(window_start, MB/s), ...] over fixed windows from t=0.

        ``t_end`` extends the series with trailing zero-throughput windows
        (the paper's Fig 7(a) shows the full execution span).
        """
        if window_s <= 0:
            raise ValueError("window must be positive")
        samples = self._series.samples
        if not samples and t_end is None:
            return []
        times = np.array([t for t, _ in samples], dtype=float)
        sizes = np.array([v for _, v in samples], dtype=float)
        last = max(times.max() if len(times) else 0.0, t_end or 0.0)
        n_windows = int(np.floor(last / window_s)) + 1
        out = []
        idx = np.minimum((times / window_s).astype(int), n_windows - 1) if len(times) else None
        sums = np.zeros(n_windows)
        if idx is not None:
            np.add.at(sums, idx, sizes)
        for w in range(n_windows):
            out.append((w * window_s, sums[w] / 1e6 / window_s))
        return out

    def mean_mb_s(self, t0: float = 0.0, t1: float = float("inf")) -> float:
        """Average MB/s between t0 and t1."""
        samples = self._series.samples
        if not samples:
            return 0.0
        times = np.array([t for t, _ in samples])
        sizes = np.array([v for _, v in samples], dtype=float)
        mask = (times >= t0) & (times < t1)
        span = min(t1, times.max()) - t0
        if span <= 0:
            return 0.0
        return float(sizes[mask].sum() / 1e6 / span)
