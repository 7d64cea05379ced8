"""Client-side PFS operations: striping, request fan-out, payload moves.

A read: for every stripe piece, a small request message travels to the
owning data server, the server performs the disk I/O, and the payload
returns.  A write moves the payload with the request.  Pieces proceed in
parallel; the call completes when the last piece does -- exactly the
synchronous MPI-IO semantics DualPar's vanilla baseline exhibits.

Each piece of a multi-piece call runs in a process of its own; a call
that splits into one piece (every request of the vanilla baseline's
small-request patterns) runs it in the caller's process, with hops that
keep the event schedule of the spawned form (see :meth:`_do_piece`).

Under fault injection (``client.faults`` set by the installer) every
piece runs through :meth:`PfsClient.robust_call`: requests to servers
the metadata server reports down park on the recovery event; live
requests race a size-aware timeout and retry with exponential backoff,
re-sending the same ``req_id`` so the server can commit a write exactly
once.  Nominally ``faults`` is None and none of this code runs.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator, Optional

from repro.pfs.dataserver import DataServer, ServerRequest, absorb_interrupt
from repro.pfs.filesystem import PfsFile
from repro.pfs.layout import StripeLayout, StripePiece
from repro.net.ethernet import Network
from repro.sim import Process, Simulator, all_of, any_of

__all__ = ["PfsClient"]

#: Size of a request/acknowledge control message.
CONTROL_MSG_BYTES = 128


class PfsClient:
    """The PFS library linked into one compute node."""

    def __init__(
        self,
        sim: Simulator,
        node_id: int,
        network: Network,
        servers: list[DataServer],
        layout: StripeLayout,
    ):
        self.sim = sim
        self.node_id = node_id
        self.network = network
        self.servers = servers
        self.layout = layout
        self.bytes_read = 0
        self.bytes_written = 0
        #: FaultInjector when a plan is installed, None nominally.
        self.faults = None
        self.n_timeouts = 0
        self.n_retries = 0
        self.n_failovers = 0
        self._tracer = sim.obs.tracer if sim.obs is not None else None

    # -- fault-aware retry loop ------------------------------------------

    def robust_call(self, make_attempt, server_index: int, nbytes: int = 0) -> Generator:
        """Run ``make_attempt()`` (a fresh generator per call) against one
        server with health-gated dispatch, timeout, and backoff."""
        faults = self.faults
        sim = self.sim
        policy = faults.retry
        health = faults.health
        timeout_s = policy.timeout_for(nbytes)
        attempt = 0
        while True:
            if not health.is_up(server_index):
                # Down per metadata: don't burn the retry budget against
                # a black hole -- park until the server returns.
                self.n_failovers += 1
                yield health.recovery_event(server_index)
            proc = sim.process(absorb_interrupt(make_attempt()), name="pfs-attempt")
            gate = sim.timeout(timeout_s)
            yield any_of(sim, [proc, gate])
            if proc.triggered:
                return
            proc.interrupt("request-timeout")
            self.n_timeouts += 1
            faults.record_timeout(server_index)
            attempt += 1
            if attempt > policy.max_retries:
                from repro.faults.injector import RequestTimeout

                raise RequestTimeout(
                    f"client {self.node_id} -> ds{server_index}: request dead "
                    f"after {attempt} attempts ({nbytes} bytes, "
                    f"timeout {timeout_s:.3f}s)"
                )
            self.n_retries += 1
            yield sim.timeout(policy.backoff_s(attempt, rng=faults.rng))

    # ------------------------------------------------------------------

    def _do_piece(
        self,
        f: PfsFile,
        piece: StripePiece,
        op: str,
        stream_id: int,
        trace_id: int = 0,
        req_id: Optional[int] = None,
        inline: bool = False,
    ) -> Generator:
        """Move one stripe piece: request out, server service, reply back.

        ``inline=True`` runs the piece inside the caller's process instead
        of the piece process :meth:`_join_pieces` would spawn and join.
        Hops stand in for that process: an URGENT one where its
        ``_Initialize`` would run and a NORMAL one where the ``all_of``
        over it would fire.  Every other event keeps its ``(time,
        priority, arrival)`` slot, so results are bit-identical to the
        spawned form.  The piece process's own (URGENT) completion needs
        no hop: the piece ends on the reply transfer's wire timeout,
        which has this piece as its one waiter, so nothing can be queued
        or dispatched between that completion and the ``all_of`` push.
        """
        sim = self.sim
        server = self.servers[piece.server]
        net = self.network
        if inline:
            yield sim.urgent_hop()
        if op == "W":
            # Request + payload travel together.
            yield from net.transfer(
                self.node_id, server.node_id, CONTROL_MSG_BYTES + piece.length
            )
        else:
            yield from net.transfer(self.node_id, server.node_id, CONTROL_MSG_BYTES)
        yield from server.call(
            ServerRequest(
                file_name=f.name,
                object_offset=piece.object_offset,
                length=piece.length,
                op=op,
                stream_id=stream_id,
                trace_id=trace_id,
                req_id=req_id,
            )
        )
        if op == "R":
            yield from net.transfer(
                server.node_id, self.node_id, CONTROL_MSG_BYTES + piece.length
            )
        else:
            yield from net.transfer(server.node_id, self.node_id, CONTROL_MSG_BYTES)
        if inline:
            yield sim.timeout(0)

    def _join_pieces(
        self, f: PfsFile, pieces: list[StripePiece], op: str, stream_id: int, trace_id: int
    ) -> Generator:
        """One process per stripe piece, joined; under fault injection
        each piece runs through :meth:`robust_call`."""
        sim = self.sim
        faults = self.faults
        if faults is None:
            procs = [
                sim.process(self._do_piece(f, p, op, stream_id, trace_id), name="pfs-piece")
                for p in pieces
            ]
        else:
            # Write ids are assigned once per piece, before any attempt,
            # so every retry re-sends the same id (exactly-once commit).
            with_ids = [
                (p, faults.next_request_id() if op == "W" else None) for p in pieces
            ]
            procs = [
                sim.process(
                    self.robust_call(
                        lambda p=p, rid=rid: self._do_piece(
                            f, p, op, stream_id, trace_id, req_id=rid
                        ),
                        p.server,
                        nbytes=p.length,
                    ),
                    name="pfs-piece",
                )
                for p, rid in with_ids
            ]
        yield all_of(sim, procs)

    def io(
        self,
        f: PfsFile,
        offset: int,
        length: int,
        op: str,
        stream_id: int,
        coalesce: bool = False,
    ) -> Generator:
        """Perform one contiguous file read/write; yield until complete.

        ``coalesce=True`` merges object-contiguous stripe pieces into large
        per-server requests -- the batched-issuer path used by collective
        aggregators and DualPar's CRM.
        """
        if op not in ("R", "W"):
            raise ValueError(f"op must be 'R' or 'W', got {op!r}")
        if offset < 0 or offset + length > f.size:
            raise ValueError(
                f"range [{offset}, {offset + length}) outside file {f.name} of {f.size} bytes"
            )
        if length == 0:
            return
        split = self.layout.split_coalesced if coalesce else self.layout.split
        pieces = split(offset, length)
        tr = self._tracer
        trace_id = tr.trace_of_stream(stream_id) if tr is not None else 0
        faults = self.faults
        if faults is None and len(pieces) == 1:
            work = self._do_piece(f, pieces[0], op, stream_id, trace_id, inline=True)
        else:
            work = self._join_pieces(f, pieces, op, stream_id, trace_id)
        if tr is not None:
            # Async span: one client node can have overlapping I/O calls.
            with tr.span(
                "pfs.io",
                track=f"client{self.node_id}",
                cat="pfs",
                trace=trace_id,
                async_=True,
                file=f.name,
                op=op,
                offset=offset,
                length=length,
                pieces=len(pieces),
            ):
                yield from work
        else:
            yield from work
        if op == "R":
            self.bytes_read += length
        else:
            self.bytes_written += length

    def io_async(
        self,
        f: PfsFile,
        offset: int,
        length: int,
        op: str,
        stream_id: int,
        coalesce: bool = False,
    ) -> Process:
        """Fire-and-track variant returning the in-flight process."""
        return self.sim.process(
            self.io(f, offset, length, op, stream_id, coalesce), name="pfs-io"
        )

    def read(self, f: PfsFile, offset: int, length: int, stream_id: int, **kw) -> Generator:
        yield from self.io(f, offset, length, "R", stream_id, **kw)

    def write(self, f: PfsFile, offset: int, length: int, stream_id: int, **kw) -> Generator:
        yield from self.io(f, offset, length, "W", stream_id, **kw)
