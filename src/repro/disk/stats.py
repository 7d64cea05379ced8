"""Per-drive statistics: the data DualPar's locality daemon consumes.

``SeekDist`` in the paper is the head seek distance maintained by the Linux
kernel for I/O request scheduling, in sectors.  The locality daemon on each
data server samples the recent average; EMC compares the cluster-wide
average against the request-level distance achievable by sorting
(``ReqDist``) to estimate potential I/O-efficiency improvement.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["DriveStats"]


@dataclass
class DriveStats:
    """Running totals for one drive.

    The locality daemon differences ``n_requests`` and
    ``total_seek_sectors`` between its time slots; the totals also feed
    end-of-run summaries.
    """

    n_requests: int = 0
    total_bytes: int = 0
    total_busy_s: float = 0.0
    total_seek_sectors: int = 0

    def record(self, nsectors: int, seek_sectors: int, service_time: float) -> None:
        """Account one serviced request."""
        self.n_requests += 1
        self.total_bytes += nsectors * 512
        self.total_busy_s += service_time
        self.total_seek_sectors += seek_sectors
