"""Two-phase collective I/O (ROMIO-style).

On a collective call every rank deposits its segment list and enters a
synchronisation point; aggregators (one per compute node, ROMIO's
default) then each own a contiguous *file domain*:

- **read**: aggregators read their domain's coalesced ranges (data
  sieving within the collective buffer), then redistribute to the
  requesting ranks over the network;
- **write**: ranks ship data to aggregators, which write coalesced
  ranges -- performing read-modify-write when hole bridging covers
  unrequested bytes.

The exchange phase costs real network transfers plus a metadata
all-to-all that grows with process count -- the scalability burden the
paper observes in Fig 4 ("the size of data domain accessed by one
collective I/O routine does not increase with more processes, making
collective I/O increasingly expensive because more data exchanges are
needed").

Planning is linear in the segment count: one pass over each rank's
segments splits them into file domains (O(segments)), and each
aggregator sorts its segments once, after which a round's exchange
bytes per rank come from prefix sums (O(ranks · log segments) per
round).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import accumulate
from typing import TYPE_CHECKING, Generator, Mapping

from repro.extents import Segment, coalesce_counting
from repro.mpi.ops import IoOp
from repro.mpiio.engine import IndependentEngine
from repro.mpiio.listio import batch_io
from repro.sim import Event, all_of

if TYPE_CHECKING:  # pragma: no cover
    from repro.mpi.runtime import MpiJob, MpiProcess, MpiRuntime

__all__ = ["CollectiveEngine"]

#: Per-process cost of the offset/length all-gather + alltoallv setup
#: preceding each call (ROMIO's ADIOI_Calc_* phase; ~3 ms at 64 ranks on
#: TCP-era clusters, growing linearly with the process count).
META_EXCHANGE_PER_PROC_S = 50e-6

#: Collective buffer per aggregator (ROMIO's ``cb_buffer_size``): an
#: aggregator moves its file domain in rounds of at most this many bytes.
CB_BUFFER_BYTES = 4 * 1024 * 1024

#: Holes up to this many bytes between an aggregator's segments are
#: bridged (data sieving within the collective buffer).
HOLE_THRESHOLD = 64 * 1024


@dataclass
class _CollCall:
    event: Event
    ops: dict[int, IoOp] = field(default_factory=dict)
    started: bool = False


def split_domains(
    ops: Mapping[int, IoOp], lo: int, fd_size: int, n_agg: int
) -> list[dict[int, list[Segment]]]:
    """Each aggregator's segments, keyed by rank: domain ``a`` is
    ``[lo + a * fd_size, lo + (a + 1) * fd_size)``.

    One pass over every rank's segments; only a segment that straddles a
    domain boundary is cut. Ranks enter each domain's dict in ``ops``
    order and keep their segment order, as clipping every segment
    against every domain would. Segments must lie in
    ``[lo, lo + n_agg * fd_size)`` and have positive length.
    """
    domains: list[dict[int, list[Segment]]] = [{} for _ in range(n_agg)]
    for rank, op in ops.items():
        mine: dict[int, list[Segment]] = {}
        for seg in op.segments:
            s, n = seg
            a = (s - lo) // fd_size
            last = (s + n - 1 - lo) // fd_size
            if a == last:
                lst = mine.get(a)
                if lst is None:
                    mine[a] = [seg]
                else:
                    lst.append(seg)
                continue
            e = s + n
            for b in range(a, last + 1):
                p_lo = max(s, lo + b * fd_size)
                piece = Segment(p_lo, min(e, lo + (b + 1) * fd_size) - p_lo)
                lst = mine.get(b)
                if lst is None:
                    mine[b] = [piece]
                else:
                    lst.append(piece)
        for a, lst in mine.items():
            domains[a][rank] = lst
    return domains


class SegmentBytes:
    """Bytes of a segment list inside ``[lo, hi)``, overlaps counted with
    multiplicity, in O(log n) per query.

    With ``F(x) = sum(max(0, min(end, x) - offset))`` the bytes in
    ``[lo, hi)`` are ``F(hi) - F(lo)``; sorted offsets and ends with
    their prefix sums give ``F`` by bisection, in exact integers.
    """

    __slots__ = ("_offs", "_ends", "_off_sums", "_end_sums")

    def __init__(self, segments: list[Segment]):
        offs = [s for s, _ in segments]
        ends = [s + n for s, n in segments]
        offs.sort()
        ends.sort()
        self._offs = offs
        self._ends = ends
        self._off_sums = list(accumulate(offs, initial=0))
        self._end_sums = list(accumulate(ends, initial=0))

    def _upto(self, x: int) -> int:
        # Segments starting below x contribute x - offset, less x - end
        # for those that also end below x.
        i = bisect_left(self._offs, x)
        j = bisect_left(self._ends, x)
        return (i - j) * x - self._off_sums[i] + self._end_sums[j]

    def within(self, lo: int, hi: int) -> int:
        return self._upto(hi) - self._upto(lo)


class CollectiveEngine(IndependentEngine):
    """ROMIO-style two-phase collective I/O with per-node aggregators,
    bounded collective buffers, and costed exchange."""

    name = "collective"

    def __init__(self, runtime: "MpiRuntime", job: "MpiJob"):
        super().__init__(runtime, job)
        self._calls: dict[int, _CollCall] = {}
        self._rank_call_idx: dict[int, int] = {}
        self.n_collective_calls = 0
        self.exchange_bytes = 0

    # ------------------------------------------------------------------

    @property
    def n_aggregators(self) -> int:
        """One aggregator per compute node (ROMIO's default)."""
        return min(self.runtime.cluster.spec.n_compute_nodes, self.job.nprocs)

    def _meta_cost_s(self) -> float:
        p = self.job.nprocs
        lat = self.runtime.cluster.spec.network.latency_s
        return 2 * math.ceil(math.log2(max(p, 2))) * lat + p * META_EXCHANGE_PER_PROC_S

    def do_io(self, proc: "MpiProcess", op: IoOp) -> Generator:
        # Running a benchmark "with collective I/O" means its I/O calls
        # are the _all variants: every op takes the two-phase path, so all
        # ranks must make the same sequence of I/O calls.
        idx = self._rank_call_idx.get(proc.rank, 0)
        self._rank_call_idx[proc.rank] = idx + 1
        call = self._calls.setdefault(idx, _CollCall(event=self.sim.event()))
        call.ops[proc.rank] = op
        yield self.job.barrier.arrive()
        yield self.sim.timeout(self._meta_cost_s())
        if not call.started:
            call.started = True
            self.n_collective_calls += 1
            self.sim.process(self._aggregate(idx, call), name=f"coll-{self.job.name}-{idx}")
        yield call.event
        # The call returns once every aggregator has delivered; stale call
        # state is dropped to keep memory bounded.
        self._calls.pop(idx, None)

    # ------------------------------------------------------------------

    def _aggregate(self, idx: int, call: _CollCall):
        sim = self.sim
        ops = call.ops
        any_op = next(iter(ops.values()))
        f = self.lookup_file(any_op.file_name)
        io_kind = any_op.op
        lo = min(s.offset for o in ops.values() for s in o.segments)
        hi = max(s.end for o in ops.values() for s in o.segments)
        n_agg = self.n_aggregators
        unit = self.runtime.cluster.spec.stripe_unit
        fd_size = -(-((hi - lo) // n_agg + 1) // unit) * unit

        agg_procs = []
        for a, per_rank in enumerate(split_domains(ops, lo, fd_size, n_agg)):
            if not per_rank:
                continue
            agg_rank = a  # aggregators are the lowest ranks, ROMIO default
            agg_proc = self.job.procs[agg_rank]
            agg_procs.append(
                sim.process(
                    self._run_aggregator(f, io_kind, agg_proc, per_rank),
                    name=f"agg{a}-{self.job.name}",
                )
            )
        if agg_procs:
            yield all_of(sim, agg_procs)
        else:  # pragma: no cover - degenerate empty call
            yield sim.timeout(0)
        call.event.succeed()

    def _run_aggregator(
        self,
        f,
        io_kind: str,
        agg_proc: "MpiProcess",
        per_rank: dict[int, list[Segment]],
    ):
        net = self.runtime.cluster.network
        client = self.client_of(agg_proc)
        all_segs = [s for segs in per_rank.values() for s in segs]
        coalesced, requested = coalesce_counting(all_segs, HOLE_THRESHOLD)
        covered = sum(s.length for s in coalesced)
        has_holes = covered > requested

        # Split the coalesced ranges into <= cb_buffer rounds.
        cb_buffer = CB_BUFFER_BYTES
        rounds: list[list[Segment]] = [[]]
        acc = 0
        for seg in coalesced:
            pos = seg.offset
            remaining = seg.length
            while remaining > 0:
                take = min(remaining, cb_buffer - acc)
                rounds[-1].append(Segment(pos, take))
                pos += take
                remaining -= take
                acc += take
                if acc >= cb_buffer:
                    rounds.append([])
                    acc = 0
        rounds = [r for r in rounds if r]

        rank_bytes = [(rank, SegmentBytes(segs)) for rank, segs in per_rank.items()]

        def exchange(direction: str, group: list[Segment]):
            """Move each rank's bytes within ``group`` between agg and rank."""
            # A round's pieces come in offset order and do not overlap.
            g_lo = group[0].offset
            g_hi = group[-1].end
            moves = []
            for rank, counter in rank_bytes:
                nbytes = counter.within(g_lo, g_hi)
                if nbytes == 0:
                    continue
                rank_node = self.job.procs[rank].node_id
                if direction == "to_ranks":
                    src, dst = agg_proc.node_id, rank_node
                else:
                    src, dst = rank_node, agg_proc.node_id
                self.exchange_bytes += nbytes
                moves.append((src, dst, nbytes))
            if moves:
                yield net.transfer_all(moves, name="coll-xchg")

        for group in rounds:
            if io_kind == "R":
                yield from batch_io(client, f, group, "R", agg_proc.stream_id)
                yield from exchange("to_ranks", group)
            else:
                yield from exchange("to_agg", group)
                if has_holes:
                    # Read-modify-write: fetch covering extents first.
                    yield from batch_io(client, f, group, "R", agg_proc.stream_id)
                yield from batch_io(client, f, group, "W", agg_proc.stream_id)
