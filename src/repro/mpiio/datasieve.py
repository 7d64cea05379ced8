"""Data sieving: coalescing segment lists with bounded hole bridging.

ROMIO's data sieving reads one covering extent instead of many small
pieces, discarding the unrequested "holes"; DualPar's CRM applies the
same idea when merging the requests a pre-execution recorded ("if there
are small numbers of holes between the requests ... for reads the data
in the holes are added to the requests").
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.mpi.ops import Segment

__all__ = ["coalesce_segments", "coalesce_counting", "coverage_stats", "CoverageStats"]


def coalesce_segments(
    segments: list[Segment] | tuple[Segment, ...],
    hole_threshold: int = 0,
) -> list[Segment]:
    """Sort, merge overlapping/adjacent segments, and bridge small holes.

    Holes of at most ``hole_threshold`` bytes between consecutive segments
    are absorbed into the covering segment.
    """
    if hole_threshold < 0:
        raise ValueError("hole_threshold must be non-negative")
    if not segments:
        return []
    ordered = sorted(segments, key=lambda s: (s.offset, s.length))
    out: list[Segment] = []
    cur_start, cur_end = ordered[0].offset, ordered[0].end
    for seg in ordered[1:]:
        if seg.offset <= cur_end + hole_threshold:
            cur_end = max(cur_end, seg.end)
        else:
            out.append(Segment(cur_start, cur_end - cur_start))
            cur_start, cur_end = seg.offset, seg.end
    out.append(Segment(cur_start, cur_end - cur_start))
    return out


def coalesce_counting(
    segments: list[Segment] | tuple[Segment, ...], hole_threshold: int
) -> tuple[list[Segment], int]:
    """``coalesce_segments(segments, hole_threshold)`` and the bytes
    ``coalesce_segments(segments, 0)`` covers (the requested bytes, each
    overlap counted once), from one sort."""
    if hole_threshold < 0:
        raise ValueError("hole_threshold must be non-negative")
    if not segments:
        return [], 0
    ordered = sorted(segments)  # Segment orders by (offset, length)
    out: list[Segment] = []
    requested = 0
    cur_start, cur_end = ordered[0].offset, ordered[0].end
    x_start, x_end = cur_start, cur_end
    for s, n in ordered[1:]:
        e = s + n
        if s <= x_end:
            if e > x_end:
                x_end = e
        else:
            requested += x_end - x_start
            x_start, x_end = s, e
        if s <= cur_end + hole_threshold:
            if e > cur_end:
                cur_end = e
        else:
            out.append(Segment(cur_start, cur_end - cur_start))
            cur_start, cur_end = s, e
    out.append(Segment(cur_start, cur_end - cur_start))
    return out, requested + x_end - x_start


@dataclass(frozen=True)
class CoverageStats:
    """How much extra data hole-bridging pulls in."""

    requested_bytes: int
    covered_bytes: int
    n_input_segments: int
    n_output_segments: int

    @property
    def waste_ratio(self) -> float:
        if self.covered_bytes == 0:
            return 0.0
        return 1.0 - self.requested_bytes / self.covered_bytes


def coverage_stats(
    segments: list[Segment] | tuple[Segment, ...], coalesced: list[Segment]
) -> CoverageStats:
    """Compare requested vs covered bytes for a coalesced segment list."""
    # Requested bytes must de-duplicate overlaps to compare fairly.
    _, requested = coalesce_counting(segments, 0)
    return CoverageStats(
        requested_bytes=requested,
        covered_bytes=sum(s.length for s in coalesced),
        n_input_segments=len(segments),
        n_output_segments=len(coalesced),
    )
