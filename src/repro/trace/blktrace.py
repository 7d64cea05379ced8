"""Blktrace-style per-disk access recording.

Storage is a :class:`repro.obs.registry.EventLog` -- the same structure
the observability layer snapshots -- so a trace can be registered into a
:class:`~repro.obs.registry.MetricsRegistry` (as ``blktrace.<name>``)
instead of keeping a private list nobody else can discover.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.obs.registry import EventLog

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np

__all__ = ["AccessRecord", "BlkTrace"]


@dataclass(frozen=True)
class AccessRecord:
    time: float
    lbn: int
    nsectors: int
    op: str


class BlkTrace:
    """Records every media access of one drive.

    Attach by passing :meth:`hook` as the drive's ``on_access`` callback
    (or pass the trace to the cluster builder, which wires it up).  Pass
    a :class:`~repro.obs.registry.MetricsRegistry` to publish the access
    log as the ``blktrace.<name>`` event log.
    """

    def __init__(self, name: str = "blktrace", registry=None):
        self.name = name
        self._log = EventLog(
            f"blktrace.{name}", fields=("time", "lbn", "nsectors", "op")
        )
        if registry is not None:
            registry.attach(self._log.name, self._log)

    @property
    def records(self) -> list[AccessRecord]:
        return self._log.rows

    def hook(self, time: float, lbn: int, nsectors: int, op: str) -> None:
        self._log.append(AccessRecord(time, lbn, nsectors, op))

    def __len__(self) -> int:
        return len(self._log)

    def window(self, t0: float, t1: float) -> list[AccessRecord]:
        """Records with t0 <= time < t1 (the paper samples 0.2-1 s windows)."""
        return [r for r in self.records if t0 <= r.time < t1]

    def to_arrays(
        self, t0: float = 0.0, t1: float = float("inf")
    ) -> tuple[np.ndarray, np.ndarray]:
        """(times, lbns) arrays for plotting an LBN-vs-time figure."""
        import numpy as np

        recs = self.window(t0, t1)
        return (
            np.array([r.time for r in recs], dtype=float),
            np.array([r.lbn for r in recs], dtype=np.int64),
        )

    def mean_seek_distance(self, t0: float = 0.0, t1: float = float("inf")) -> float:
        """Mean |gap| in sectors between consecutively-serviced accesses.

        This is the quantity Fig 7(b) plots: average disk-head seek
        distance per request over a sampling window.
        """
        recs = self.window(t0, t1)
        if len(recs) < 2:
            return 0.0
        import numpy as np

        gaps = [
            abs(b.lbn - (a.lbn + a.nsectors)) for a, b in zip(recs, recs[1:])
        ]
        return float(np.mean(gaps))

    def monotonicity(self, t0: float = 0.0, t1: float = float("inf")) -> float:
        """Fraction of consecutive access pairs moving forward on disk.

        Near 1.0 means the head sweeps one way (Fig 1(d)); near 0.5 means
        back-and-forth ping-pong (Fig 1(c)).
        """
        recs = self.window(t0, t1)
        if len(recs) < 2:
            return 1.0
        fwd = sum(1 for a, b in zip(recs, recs[1:]) if b.lbn >= a.lbn)
        return fwd / (len(recs) - 1)

    def ascii_plot(
        self, t0: float, t1: float, width: int = 72, height: int = 20
    ) -> str:
        """Render the LBN-vs-time scatter as ASCII art (for bench output)."""
        times, lbns = self.to_arrays(t0, t1)
        if len(times) == 0:
            return "(no accesses in window)"
        tmin, tmax = float(times.min()), float(times.max())
        lmin, lmax = int(lbns.min()), int(lbns.max())
        tspan = max(tmax - tmin, 1e-12)
        lspan = max(lmax - lmin, 1)
        grid = [[" "] * width for _ in range(height)]
        for t, lbn in zip(times, lbns):
            x = min(int((t - tmin) / tspan * (width - 1)), width - 1)
            y = min(int((lbn - lmin) / lspan * (height - 1)), height - 1)
            grid[height - 1 - y][x] = "*"
        lines = ["".join(row) for row in grid]
        header = f"LBN {lmin}..{lmax} over t={t0:.3f}..{t1:.3f}s ({len(times)} accesses)"
        return "\n".join([header] + lines)
