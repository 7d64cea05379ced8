"""Per-drive statistics: the data DualPar's locality daemon consumes.

``SeekDist`` in the paper is the head seek distance maintained by the Linux
kernel for I/O request scheduling, in sectors.  The locality daemon on each
data server samples the recent average; EMC compares the cluster-wide
average against the request-level distance achievable by sorting
(``ReqDist``) to estimate potential I/O-efficiency improvement.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

__all__ = ["DriveStats", "SeekSample"]


@dataclass(frozen=True)
class SeekSample:
    """One serviced request's positional record."""

    time: float
    lbn: int
    nsectors: int
    seek_sectors: int
    service_time: float
    op: str


@dataclass
class DriveStats:
    """Rolling statistics for one drive.

    A bounded deque of recent seek samples supports windowed queries
    (the locality daemon reports averages over constant time slots), while
    scalar totals support end-of-run summaries.
    """

    window: int = 4096
    n_requests: int = 0
    total_bytes: int = 0
    total_busy_s: float = 0.0
    total_seek_sectors: int = 0
    total_seek_s: float = 0.0
    recent: deque = field(default_factory=deque)

    def record(self, sample: SeekSample) -> None:
        self.n_requests += 1
        self.total_bytes += sample.nsectors * 512
        self.total_busy_s += sample.service_time
        self.total_seek_sectors += sample.seek_sectors
        self.recent.append(sample)
        while len(self.recent) > self.window:
            self.recent.popleft()

    def mean_seek_sectors(self, since: float = 0.0) -> float:
        """Average per-request seek distance over samples newer than ``since``."""
        picked = [s.seek_sectors for s in self.recent if s.time >= since]
        if not picked:
            return 0.0
        return sum(picked) / len(picked)

    def throughput_mb_s(self, elapsed_s: float) -> float:
        """End-to-end MB/s given total elapsed (not busy) seconds."""
        if elapsed_s <= 0:
            return 0.0
        return self.total_bytes / 1e6 / elapsed_s
