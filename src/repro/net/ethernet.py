"""Bandwidth/latency network with per-NIC serialisation.

Transfer model: a message of ``n`` bytes from A to B

1. waits for A's TX side and keeps it;
2. then waits for B's RX side;
3. holds both together for ``overhead + latency + n / bandwidth``.

End-to-end time is ``overhead + latency + n/bw`` when idle.  Under
contention both ends serialise for the whole message, latency included:
N senders into one receiver finish at ``N * (overhead + latency +
n/bw)``, and a sender waiting on a busy receiver keeps its TX, so the
node's later messages, even to idle nodes, queue behind that one.

The paper's Fig 4 vanilla collapse depends on this receiver hold.  A
cut-through variant (TX held for ``overhead + n/bw``, RX held for
``n/bw`` from arrival) lifts vanilla MPI-IO enough that BTIO at 64
processes drops from 23.8x to 4.0x for collective/vanilla and from
30.8x to 5.4x for DualPar/vanilla, against the paper's up to 24x and
35x.

Concurrent messages (a multi-get's replies, a collective round's
exchange) go through :meth:`Network.transfer_all`, which runs each one
as a fixed callback chain instead of a process per message.  On the C
kernel both entry points run that chain in C (docs/performance.md,
Layer 6).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Optional

from repro.sim import Event, Resource, Simulator, all_of
from repro.sim.core import URGENT

__all__ = ["Network", "NetworkParams", "Nic"]


@dataclass(frozen=True)
class NetworkParams:
    """Defaults model the Darwin cluster's switched GigE."""

    bandwidth_bytes_s: float = 117e6  # ~GigE after protocol overheads
    latency_s: float = 50e-6
    per_message_overhead_s: float = 10e-6

    def __post_init__(self) -> None:
        if self.bandwidth_bytes_s <= 0:
            raise ValueError("bandwidth must be positive")
        if self.latency_s < 0 or self.per_message_overhead_s < 0:
            raise ValueError("latency/overhead must be non-negative")


class Nic:
    """Full-duplex NIC: independent TX and RX serialisation points."""

    def __init__(self, sim: Simulator, node_id: int):
        self.node_id = node_id
        self.tx = Resource(sim, capacity=1)
        self.rx = Resource(sim, capacity=1)
        self.bytes_sent = 0
        self.bytes_received = 0


class Network:
    """A switch connecting ``n_nodes`` NICs."""

    def __init__(self, sim: Simulator, n_nodes: int, params: NetworkParams | None = None):
        if n_nodes < 1:
            raise ValueError("need at least one node")
        self.sim = sim
        self.params = params or NetworkParams()
        self.nics = [Nic(sim, i) for i in range(n_nodes)]
        self.messages_delivered = 0
        #: Degradation state installed by the fault injector (None
        #: nominally; see repro.faults.injector.NetFault).
        self.fault = None
        #: The C transfer chain's constants (repro.sim._cq.move); None on
        #: the pure-Python kernel or when a ledger made the NICs Python ones.
        self._chain = None
        if sim._accel is not None and sim._ledger is None:
            p = self.params
            nodes = tuple((n, n.tx.request, n.tx.release, n.rx.request, n.rx.release)
                          for n in self.nics)
            fixed = p.per_message_overhead_s + p.latency_s
            self._chain = (sim, sim._queue, sim._pool, self, nodes, fixed,
                           p.per_message_overhead_s, p.bandwidth_bytes_s)

    def n_nodes(self) -> int:
        return len(self.nics)

    def transfer(
        self, src: int, dst: int, nbytes: int, start: Optional[int] = None, end: bool = False
    ) -> Generator:
        """Move ``nbytes`` from node ``src`` to node ``dst``.

        A generator to ``yield from`` inside the caller's process; returns
        when the last byte lands.  Loopback (src == dst) costs only the
        per-message overhead (shared memory).

        ``start`` (``URGENT`` or ``NORMAL``) first yields a zero-delay hop
        of that priority, and ``end=True`` a NORMAL one after the landing:
        the hops of ``PfsClient._exchange``, which on the C chain the move
        pushes itself (docs/performance.md, Layer 8).
        """
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        sim = self.sim
        fault = self.fault
        if self._chain is not None and fault is None and sim._ledger is None:
            # The C chain: the steps and pushes below with one resume of
            # the caller instead of up to five.  Its releases are the
            # landed event's first callback, so they run before the caller
            # resumes, where the ``finally`` below runs; abort() stands in
            # for that ``finally`` on an interrupt.
            move = sim._accel.move(  # type: ignore[union-attr]
                self._chain, src, dst, nbytes, start, end
            )
            try:
                yield move.done if end else move.landed
            except BaseException:
                move.abort()
                raise
            return
        p = self.params
        if start is not None:
            yield sim.urgent_hop() if start == URGENT else sim.timeout(0)
        if src == dst:
            yield sim.timeout(p.per_message_overhead_s)
        else:
            src_nic, dst_nic = self.nics[src], self.nics[dst]
            if fault is not None:
                # Partition wait + injected latency/jitter, before any NIC
                # is held so a cut never pins resources.
                yield from fault.gate(src, dst)
            # Hold TX and RX simultaneously over a single wire occupation
            # so transfer time is charged once while both endpoints
            # serialise.  Acquisition order (own TX, then destination RX)
            # is cycle-free.  Both waits sit inside the ``try``: an
            # interrupted transfer (a client request timeout) releases
            # what it holds and cancels what it still queues for, so no
            # NIC is pinned by a dead process.
            tx_req = src_nic.tx.request()
            rx_req = None
            try:
                yield tx_req
                rx_req = dst_nic.rx.request()
                yield rx_req
                wire_s = p.per_message_overhead_s + p.latency_s + nbytes / p.bandwidth_bytes_s
                yield sim.timeout(wire_s)
                src_nic.bytes_sent += nbytes
                dst_nic.bytes_received += nbytes
            finally:
                if rx_req is not None:
                    dst_nic.rx.release(rx_req)
                src_nic.tx.release(tx_req)
        self.messages_delivered += 1
        if end:
            yield sim.timeout(0)

    def transfer_all(self, moves: list[tuple[int, int, int]], name: str = "transfer") -> Event:
        """Run the ``(src, dst, nbytes)`` moves concurrently.

        Returns an event that fires once the last move lands.  Each move
        takes exactly the steps :meth:`transfer` takes in a process of
        its own, joined by ``all_of``, but runs them as a fixed callback
        chain with no process: TX request, then RX request, then the
        wire timeout, then release both (a loopback move takes the one
        overhead timeout).  Every remaining push keeps the ``(time,
        priority, arrival)`` slot it has in the process form:

        - there the moves' URGENT ``_Initialize`` pushes are queued back
          to back and each pushes only NORMAL events, so one urgent hop
          whose callback issues every move's first request in move order
          stands in for all of them;
        - a move's URGENT process-done push directly follows its wire
          timeout, whose one waiter it is; it is popped next, and only
          the last one's callback pushes anything -- the ``all_of``
          trigger, which ``done.succeed()`` in the last wire callback,
          after both releases, reproduces.

        On the C kernel the hop's callback is the accelerator's fan
        launcher, which runs the same chain in C; the Python chain below
        is its reference.

        Under a network fault (the gate is a generator step) or a
        lifecycle ledger (the sanitizer and the stall watchdog read it to
        attribute NIC slots to the process that holds them) the moves run
        as ``name``-d :meth:`transfer` processes joined by ``all_of``.
        Callers pass at least one move; an empty list returns an
        already-triggered event.
        """
        if any(m[2] < 0 for m in moves):
            raise ValueError("nbytes must be non-negative")
        sim = self.sim
        if not moves or self.fault is not None or sim._ledger is not None:
            return all_of(sim, [sim.process(self.transfer(*m), name=name) for m in moves])
        done = Event(sim)
        if self._chain is not None:
            fan = sim._accel.fan(self._chain, moves, done)  # type: ignore[union-attr]
            sim.urgent_hop().callbacks.append(fan)  # type: ignore[union-attr]
            return done
        p = self.params
        nics = self.nics
        timeout = sim.timeout
        overhead = p.per_message_overhead_s
        fixed = overhead + p.latency_s
        bw = p.bandwidth_bytes_s
        left = len(moves)

        def landed(_ev):
            nonlocal left
            self.messages_delivered += 1
            left -= 1
            if not left:
                done.succeed()

        def chain(src, dst, nbytes):
            s, d = nics[src], nics[dst]
            tx_req = s.tx.request()
            rx_req = None

            def on_tx(_ev):
                nonlocal rx_req
                rx_req = d.rx.request()
                rx_req.callbacks.append(on_rx)

            def on_rx(_ev):
                timeout(fixed + nbytes / bw).callbacks.append(on_wire)

            def on_wire(_ev):
                s.bytes_sent += nbytes
                d.bytes_received += nbytes
                d.rx.release(rx_req)
                s.tx.release(tx_req)
                landed(_ev)

            tx_req.callbacks.append(on_tx)

        def start(_ev):
            for src, dst, nbytes in moves:
                if src == dst:
                    timeout(overhead).callbacks.append(landed)
                else:
                    chain(src, dst, nbytes)

        sim.urgent_hop().callbacks.append(start)  # type: ignore[union-attr]
        return done
