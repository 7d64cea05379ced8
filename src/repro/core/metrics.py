"""EMC's inputs: windowed I/O ratios and compute-node request distances.

``JobIoSampler`` differences each rank's cumulative ADIO counters between
EMC ticks, yielding the program's recent I/O ratio; ``RequestRecorder``
implements the paper's ReqDist: "we record requests observed at each of
the compute nodes ... in constant time slots, sort requests for data from
the same file according to their file offsets, and calculate the average
distance between adjacent requests.  ReqDist represents the highest I/O
efficiency that a data-driven execution can possibly achieve."
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.mpi.runtime import MpiJob

__all__ = ["JobIoSampler", "RequestRecorder"]


class JobIoSampler:
    """Windowed I/O-ratio sampler for one job."""

    def __init__(self, job: "MpiJob"):
        self.job = job
        self._last_io = 0.0
        self._last_compute = 0.0

    def sample(self) -> Optional[float]:
        """I/O ratio since the previous sample; None if the job was idle."""
        io = sum(p.metrics.io_time_s for p in self.job.procs)
        comp = sum(p.metrics.compute_time_s for p in self.job.procs)
        d_io = io - self._last_io
        d_comp = comp - self._last_compute
        self._last_io = io
        self._last_compute = comp
        total = d_io + d_comp
        if total <= 0:
            return None
        return d_io / total


#: Most requests a :class:`RequestRecorder` keeps (oldest dropped first).
MAX_RECORDS = 50_000


class RequestRecorder:
    """Per-compute-node log of file requests for ReqDist computation."""

    def __init__(self, node_id: int, window_s: float = 2.0):
        self.node_id = node_id
        self.window_s = window_s
        self._records: deque[tuple[float, str, int, int]] = deque(maxlen=MAX_RECORDS)

    def record(self, time: float, file_name: str, offset: int, length: int) -> None:
        self._records.append((time, file_name, offset, length))

    def recent_req_dist(self, now: float) -> Optional[float]:
        """Mean sorted-adjacent gap (in 512-byte sectors) over the window.

        Returns None when fewer than two requests fall in the window.
        """
        t0 = now - self.window_s
        by_file: dict[str, list[tuple[int, int]]] = {}
        for t, fname, off, length in self._records:
            if t >= t0:
                by_file.setdefault(fname, []).append((off, length))
        gaps: list[int] = []
        for ranges in by_file.values():
            if len(ranges) < 2:
                continue
            ranges.sort()
            for (a_off, a_len), (b_off, _b_len) in zip(ranges, ranges[1:]):
                gaps.append(max(b_off - (a_off + a_len), 0))
        if not gaps:
            return None
        return sum(gaps) / len(gaps) / 512.0
