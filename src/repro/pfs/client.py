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
requests to a crashed server park on its recovery event; requests to a
running one race a size-aware timeout and retry with exponential
backoff, re-sending the same request (and so the same ``req_id``) so
the server can commit a write exactly once.  Nominally ``faults`` is
None and none of this code runs.
"""

from __future__ import annotations

from typing import Generator

from repro.pfs.dataserver import DataServer, ServerRequest, absorb_interrupt
from repro.pfs.filesystem import PfsFile
from repro.pfs.layout import StripeLayout
from repro.net.ethernet import Network
from repro.sim import Simulator, all_of, any_of
from repro.sim.core import NORMAL, URGENT

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

    def robust_call(
        self,
        server_index: int,
        op: str,
        header: int,
        nbytes: int,
        request: ServerRequest | list[ServerRequest],
    ) -> Generator:
        """Run one :meth:`_exchange` with a server under the plan's retry
        policy: park while the server is crashed, race each attempt
        against a size-aware timeout, and back off before re-sending the
        same ``request``."""
        faults = self.faults
        sim = self.sim
        policy = faults.retry
        server = self.servers[server_index]
        timeout_s = policy.timeout_for(nbytes)
        attempt = 0
        while True:
            if server.crashed:
                # Don't burn the retry budget against a black hole --
                # park until the server returns.
                self.n_failovers += 1
                yield server.recovery_event()
            proc = sim.process(
                absorb_interrupt(self._exchange(server, op, header, nbytes, request)),
                name="pfs-attempt",
            )
            gate = sim.timeout(timeout_s)
            yield any_of(sim, [proc, gate])
            if proc.triggered:
                return
            proc.interrupt("request-timeout")
            self.n_timeouts += 1
            if self._tracer is not None:
                self._tracer.instant(
                    "faults.timeout", track="faults", cat="fault", server=server_index
                )
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
        :class:`ServerRequest` or a list-I/O batch of them -- through
        :meth:`DataServer.call`; then the reply carries a control
        message, plus the payload for a read.

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
        When :meth:`DataServer.call` served the request inline, a NORMAL
        hop stands in for the ``done`` event of the service process it
        replaced.  The transfers take all three hops (``start`` and
        ``end`` of :meth:`Network.transfer`), so on the C chain none of
        them resumes this process.
        """
        net = self.network
        node, peer = self.node_id, server.node_id
        yield from net.transfer(
            node, peer, header + nbytes if op == "W" else header, URGENT if inline else None
        )
        served_inline = yield from server.call(request)
        reply = CONTROL_MSG_BYTES + nbytes if op == "R" else CONTROL_MSG_BYTES
        yield from net.transfer(peer, node, reply, NORMAL if served_inline else None, inline)

    def _fan_out(self, op: str, units: list, name: str) -> Generator:
        """Run ``(server index, nbytes, header, request or batch)`` units
        in parallel, each an :meth:`_exchange` in a process of its own
        named ``name.format(server index)``; yield until every unit is
        done.

        Under fault injection each unit runs through :meth:`robust_call`,
        and write requests get their ids first: once per unit, before any
        attempt, in unit order and in run order within a batch.  A retry
        re-sends the same requests, so the server commits each write once.
        """
        sim = self.sim
        servers = self.servers
        faults = self.faults
        if faults is None:
            procs = [
                sim.process(self._exchange(servers[s], op, header, n, req), name=name.format(s))
                for s, n, header, req in units
            ]
        else:
            if op == "W":
                for *_, req in units:
                    for r in req if type(req) is list else (req,):
                        r.req_id = faults.next_request_id()
            procs = [
                sim.process(self.robust_call(s, op, header, n, req), name=name.format(s))
                for s, n, header, req in units
            ]
        yield all_of(sim, procs)

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
        if offset < 0 or length < 0 or offset + length > f.size:
            raise ValueError(
                f"range [{offset}, {offset + length}) outside file {f.name} of {f.size} bytes"
            )
        if length == 0:
            return
        tr = self._tracer
        trace_id = tr.trace_of_stream(stream_id) if tr is not None else 0
        layout = self.layout
        unit = layout.stripe_unit
        stripe = offset // unit
        if self.faults is None and stripe == (offset + length - 1) // unit:
            # One stripe piece (every request of the vanilla baseline's
            # small-request patterns): StripeLayout's arithmetic, and the
            # piece inline in this process.
            n = layout.n_servers
            req = ServerRequest(
                f.name, stripe // n * unit + offset % unit, length, op, stream_id, trace_id
            )
            n_pieces = 1
            work = self._exchange(
                self.servers[stripe % n], op, CONTROL_MSG_BYTES, length, req, inline=True
            )
        else:
            pieces = layout.split(offset, length)
            n_pieces = len(pieces)
            units = [
                (
                    p.server,
                    p.length,
                    CONTROL_MSG_BYTES,
                    ServerRequest(f.name, p.object_offset, p.length, op, stream_id, trace_id),
                )
                for p in pieces
            ]
            work = self._fan_out(op, units, "pfs-piece")
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
                pieces=n_pieces,
            ):
                yield from work
        else:
            yield from work
        if op == "R":
            self.bytes_read += length
        else:
            self.bytes_written += length
