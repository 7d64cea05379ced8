"""Client-side PFS operations: striping, request fan-out, payload moves.

A read: for every stripe piece, a small request message travels to the
owning data server, the server performs the disk I/O, and the payload
returns.  A write moves the payload with the request.  Pieces proceed in
parallel; the call completes when the last piece does -- exactly the
synchronous MPI-IO semantics DualPar's vanilla baseline exhibits.

One method, :meth:`PfsClient._exchange`, carries the request/reply
conversation of a stripe piece and of a list-I/O batch
(:func:`repro.mpiio.listio.batch_io`) alike; one method,
:meth:`PfsClient._fan_out`, runs such units in parallel.  Each piece of
a multi-piece call runs in a process of its own; a call that splits into
one piece (every request of the vanilla baseline's small-request
patterns) runs it in the caller's process, with hops that keep the event
schedule of the spawned form (see :meth:`_exchange`).

Under fault injection (``client.faults`` set by the installer) every
piece and every list batch runs through :meth:`PfsClient.robust_call`:
requests to servers the injector's health map reports down park on the
recovery event; live requests race a size-aware timeout and retry with
exponential backoff, re-sending the same ``req_id`` so the server can
commit a write exactly once.  Nominally ``faults`` is None and none of
this code runs.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator, Optional

from repro.pfs.dataserver import DataServer, ServerRequest, absorb_interrupt
from repro.pfs.filesystem import PfsFile
from repro.pfs.layout import StripeLayout, StripePiece
from repro.net.ethernet import Network
from repro.sim import Event, Process, Simulator, all_of, any_of

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
                # Reported down: don't burn the retry budget against
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

    def _exchange(
        self,
        server: DataServer,
        op: str,
        header: int,
        nbytes: int,
        request: ServerRequest | list[ServerRequest],
        inline: bool = False,
    ) -> Generator:
        """One request/reply conversation with ``server``, the path of a
        stripe piece and of a list-I/O batch alike.

        The request carries ``header`` bytes, plus the ``nbytes`` payload
        for a write; then the server serves ``request`` -- one
        :class:`ServerRequest` inside this process (:meth:`DataServer.call`)
        or a list of them in a list service (:meth:`DataServer.handle_list`);
        then the reply carries a control message, plus the payload for a
        read.

        ``inline=True`` runs a single stripe piece inside the caller's
        process instead of the piece process :meth:`_fan_out` would spawn
        and join.  Hops stand in for that process: an URGENT one where its
        ``_Initialize`` would run and a NORMAL one where the ``all_of``
        over it would fire.  Every other event keeps its ``(time,
        priority, arrival)`` slot, so results are bit-identical to the
        spawned form.  The piece process's own (URGENT) completion needs
        no hop: the piece ends on the reply transfer's wire timeout,
        which has this piece as its one waiter, so nothing can be queued
        or dispatched between that completion and the ``all_of`` push.
        """
        net = self.network
        node, peer = self.node_id, server.node_id
        if inline:
            yield self.sim.urgent_hop()
        yield from net.transfer(node, peer, header + nbytes if op == "W" else header)
        if type(request) is list:
            yield server.handle_list(request)
        else:
            yield from server.call(request)
        reply = CONTROL_MSG_BYTES + nbytes if op == "R" else CONTROL_MSG_BYTES
        yield from net.transfer(peer, node, reply)
        if inline:
            yield self.sim.timeout(0)

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
        """The :meth:`_exchange` that moves one stripe piece."""
        req = ServerRequest(
            file_name=f.name,
            object_offset=piece.object_offset,
            length=piece.length,
            op=op,
            stream_id=stream_id,
            trace_id=trace_id,
            req_id=req_id,
        )
        return self._exchange(
            self.servers[piece.server], op, CONTROL_MSG_BYTES, piece.length, req, inline
        )

    def _fan_out(self, units: list, name: str) -> Event:
        """Run ``(server index, nbytes, make_attempt)`` units in parallel,
        one process each named ``name.format(server index)``; returns the
        ``all_of`` event that fires when every unit is done.

        ``make_attempt()`` returns a fresh exchange generator.  Nominally
        each unit runs it once; under fault injection each unit runs it
        through :meth:`robust_call`, which calls it again per retry.
        """
        sim = self.sim
        if self.faults is None:
            procs = [sim.process(make(), name=name.format(s)) for s, _, make in units]
        else:
            procs = [
                sim.process(self.robust_call(make, s, nbytes=n), name=name.format(s))
                for s, n, make in units
            ]
        return all_of(sim, procs)

    def _join_pieces(
        self, f: PfsFile, pieces: list[StripePiece], op: str, stream_id: int, trace_id: int
    ) -> Generator:
        """One process per stripe piece (see :meth:`_fan_out`), joined."""
        faults = self.faults
        units = []
        for p in pieces:
            # Write ids are assigned once per piece, before any attempt,
            # so every retry re-sends the same id (exactly-once commit).
            rid = faults.next_request_id() if faults is not None and op == "W" else None
            units.append(
                (
                    p.server,
                    p.length,
                    lambda p=p, rid=rid: self._do_piece(f, p, op, stream_id, trace_id, rid),
                )
            )
        yield self._fan_out(units, "pfs-piece")

    def io(
        self,
        f: PfsFile,
        offset: int,
        length: int,
        op: str,
        stream_id: int,
    ) -> Generator:
        """Perform one contiguous file read/write; yield until complete:
        one request per stripe piece (list I/O, which packs many ranges
        into one request per server, is :func:`repro.mpiio.listio.batch_io`).
        """
        if op not in ("R", "W"):
            raise ValueError(f"op must be 'R' or 'W', got {op!r}")
        if offset < 0 or offset + length > f.size:
            raise ValueError(
                f"range [{offset}, {offset + length}) outside file {f.name} of {f.size} bytes"
            )
        if length == 0:
            return
        pieces = self.layout.split(offset, length)
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
    ) -> Process:
        """Fire-and-track variant returning the in-flight process."""
        return self.sim.process(self.io(f, offset, length, op, stream_id), name="pfs-io")
