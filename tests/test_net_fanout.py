"""Network messages without a process per message.

Nominally :meth:`Network.transfer_all` runs each ``(src, dst, nbytes)``
move as a fixed callback chain (TX request, RX request, wire timeout,
release both), started by one urgent hop and finished by one ``done``
event, and on the C kernel :meth:`Network.transfer` runs one message as
the same chain in C, resuming its caller once.  These tests hold both
against the forms they replaced, kept here as the reference: the
three-yield ``transfer`` generator, and one process per move running
it, joined by ``all_of``.  The scenarios are hand-driven and tie-heavy
-- actors on four nodes are released together at t=0, send messages of
equal size and nap for exactly one message time -- and every actor
notes the time and the delivered-message count after each step, so any
push that leaves its ``(time, priority, arrival)`` slot shows up as a
different log.
"""

from __future__ import annotations

import gc
import importlib.util
import random
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.faults.injector import NetFault
from repro.guard import StallWatchdog
from repro.net.ethernet import Network, NetworkParams
from repro.sim import HeapQueue, Interrupt, Simulator, all_of
from repro.sim import core as sim_core
from repro.sim.core import NORMAL, URGENT

NODES = 4
_P = NetworkParams()
SMALL, LARGE = 64, 64 + 4096
#: Wire time of a small / a large message, as Network.transfer sums it.
D_SMALL, D_LARGE = (
    _P.per_message_overhead_s + _P.latency_s + n / _P.bandwidth_bytes_s
    for n in (SMALL, LARGE)
)
NAPS = [0.0, _P.per_message_overhead_s, D_SMALL, D_LARGE]


def _reference_transfer(self, src, dst, nbytes, start=None, end=False):
    """Network.transfer as a generator that yields on its start hop, the
    TX grant, the RX grant, the wire timeout and its end hop, releasing
    both NICs in ``finally``."""
    if nbytes < 0:
        raise ValueError("nbytes must be non-negative")
    sim = self.sim
    p = self.params
    if start is not None:
        yield sim.urgent_hop() if start == URGENT else sim.timeout(0)
    yield from _reference_body(self, src, dst, nbytes)
    if end:
        yield sim.timeout(0)


def _reference_body(self, src, dst, nbytes):
    sim = self.sim
    p = self.params
    if src == dst:
        yield sim.timeout(p.per_message_overhead_s)
        self.messages_delivered += 1
        return
    src_nic, dst_nic = self.nics[src], self.nics[dst]
    wire_time = nbytes / p.bandwidth_bytes_s
    if self.fault is not None:
        yield from self.fault.gate(src, dst)
    tx_req = src_nic.tx.request()
    rx_req = None
    try:
        yield tx_req
        rx_req = dst_nic.rx.request()
        yield rx_req
        yield sim.timeout(p.per_message_overhead_s + p.latency_s + wire_time)
        src_nic.bytes_sent += nbytes
        dst_nic.bytes_received += nbytes
    finally:
        if rx_req is not None:
            dst_nic.rx.release(rx_req)
        src_nic.tx.release(tx_req)
    self.messages_delivered += 1


def _reference_transfer_all(self, moves, name="transfer"):
    """Network.transfer_all in its process-per-move form."""
    sim = self.sim
    return all_of(sim, [sim.process(_reference_transfer(self, *m), name=name) for m in moves])


def _use_reference(monkeypatch) -> None:
    monkeypatch.setattr(Network, "transfer", _reference_transfer)
    monkeypatch.setattr(Network, "transfer_all", _reference_transfer_all)


def _simulator(kernel: str) -> Simulator:
    """A nominal simulator (no sanitizer) on the given kernel."""
    if kernel == "python":
        return Simulator(sanitize=False, queue=HeapQueue())
    if sim_core._CQ is None:
        pytest.skip("no C accelerator")
    return Simulator(sanitize=False)


def _scenario(monkeypatch, kernel: str, reference: bool, plans) -> tuple:
    """Run ``plans`` (``(node, actions)`` per actor; an int seeds
    :func:`_random_plans`); returns the log and the counters.

    Actions: ``("fan", moves)`` yields ``transfer_all(moves)``;
    ``("send", dst, n[, start, end])`` runs a transfer in the actor's
    process, with the given start hop and end hop;
    ``("spawn", dst, n)`` starts one in a process of its own, which
    notes its landing, and goes on at once; ``("hold", side)`` takes the
    node's ``"tx"`` or ``"rx"`` slot for one small-message time;
    ``("hop",)`` yields an urgent hop; ``("nap", s)`` sleeps."""
    if reference:
        _use_reference(monkeypatch)
    if isinstance(plans, int):
        plans = _random_plans(plans)
    sim = _simulator(kernel)
    net = Network(sim, NODES)
    gate = sim.event()
    log: list[tuple] = []

    def note(*tag):
        log.append((sim.now, net.messages_delivered, *tag))

    def sender(src, dst, nbytes, tag):
        yield from net.transfer(src, dst, nbytes)
        note(tag)

    def actor(tag, node, plan):
        yield gate
        for i, (kind, *args) in enumerate(plan):
            if kind == "fan":
                yield net.transfer_all(args[0])
            elif kind == "send":
                yield from net.transfer(node, *args)
            elif kind == "spawn":
                sim.process(sender(node, *args, (tag, i)))
            elif kind == "hold":
                slot = getattr(net.nics[node], args[0])
                req = slot.request()
                yield req
                note(tag, i, "held")
                yield sim.timeout(D_SMALL)
                slot.release(req)
            elif kind == "hop":
                yield sim.urgent_hop()
            else:
                yield sim.timeout(*args)
            note(tag, i)

    for tag, (node, plan) in enumerate(plans):
        sim.process(actor(tag, node, plan))
    gate.succeed()
    sim.run()
    monkeypatch.undo()
    return log, [(n.bytes_sent, n.bytes_received) for n in net.nics], net.messages_delivered


def _random_plans(seed: int) -> list[tuple]:
    """Two or three actors per node, six actions each; fans of one to
    four moves to any node, loopback and zero-byte moves included.  A
    send's start and end hops are drawn from a second generator, so the
    plans are otherwise those drawn before sends took hops."""
    rng = random.Random(seed)
    hops = random.Random(-1 - seed)
    sizes = [SMALL, SMALL, LARGE, 0]
    plans = []
    for node in range(NODES):
        for _ in range(rng.choice([2, 3])):
            plan: list[tuple] = []
            for _ in range(6):
                kind = rng.choice(["fan", "fan", "fan", "send", "spawn", "hold", "hop", "nap"])
                if kind == "fan":
                    moves = [
                        (rng.choice([node, node, rng.randrange(NODES)]),
                         rng.randrange(NODES), rng.choice(sizes))
                        for _ in range(rng.randint(1, 4))
                    ]
                    plan.append((kind, moves))
                elif kind == "send":
                    plan.append((kind, rng.randrange(NODES), rng.choice(sizes),
                                 hops.choice([None, URGENT, NORMAL]), hops.random() < 0.5))
                elif kind == "spawn":
                    plan.append((kind, rng.randrange(NODES), rng.choice(sizes)))
                elif kind == "hold":
                    plan.append((kind, rng.choice(["tx", "rx"])))
                elif kind == "hop":
                    plan.append((kind,))
                else:
                    plan.append((kind, rng.choice(NAPS)))
            plans.append((node, plan))
    return plans


#: Equal-time moves that share a TX (node 0's) and an RX (node 1's and
#: node 2's), from two fans and a plain transfer released together.
SHARED_NIC = [
    (0, [("fan", [(0, 1, SMALL), (0, 2, SMALL), (3, 1, SMALL)])]),
    (0, [("fan", [(0, 1, SMALL), (3, 2, LARGE)])]),
    (3, [("send", 1, SMALL)]),
]
#: A move queued behind another process's transfer on the same TX.
QUEUED_BEHIND = [
    (0, [("send", 1, LARGE), ("fan", [(0, 2, SMALL)])]),
    (0, [("fan", [(0, 2, SMALL), (0, 3, SMALL)]), ("nap", 0.0)]),
]
#: Loopback and zero-byte moves, alone and mixed with wire moves.
LOOPBACK_ZERO = [
    (1, [("fan", [(1, 1, SMALL), (0, 1, 0), (2, 2, 0), (1, 1, 0)])]),
    (0, [("fan", [(0, 0, 0)]), ("fan", [(0, 1, 0), (0, 1, SMALL)])]),
]
#: A fan issued right after a spawn, whose URGENT start is still
#: pending: the spawned transfer must take node 0's TX first.  Without
#: the urgent hop the fan's move would take it.
URGENT_PENDING = [
    (0, [("spawn", 1, SMALL), ("fan", [(0, 2, SMALL)])]),
    (2, [("hop",), ("fan", [(2, 3, SMALL)]), ("hop",), ("spawn", 3, SMALL)]),
]
#: A holder queued on node 0's TX behind a fan's only move: the
#: release grants it before the fan's ``done`` is pushed, so the holder
#: notes its grant before the fan's actor resumes.
DONE_AFTER_RELEASE = [
    (0, [("fan", [(0, 1, SMALL)])]),
    (0, [("hop",), ("hold", "tx")]),
]

#: Single transfers only: two equal-time sends sharing node 0's TX, one
#: queued on node 1's busy RX, a send waiting behind a NIC holder, and
#: spawned sends landing while their spawners send on.
SINGLE_SENDS = [
    (0, [("send", 1, SMALL), ("send", 2, LARGE)]),
    (0, [("send", 3, SMALL), ("spawn", 1, 0)]),
    (2, [("send", 1, LARGE), ("nap", D_SMALL), ("send", 0, SMALL)]),
    (1, [("hold", "rx"), ("send", 0, SMALL)]),
    (3, [("spawn", 1, SMALL), ("spawn", 0, LARGE), ("send", 0, 0)]),
]

#: A landing message frees node 1's RX, then node 0's TX, each with a
#: holder queued on it: the holders are granted in release order.
RELEASE_ORDER = [
    (0, [("send", 1, SMALL)]),
    (0, [("nap", _P.per_message_overhead_s), ("hold", "tx")]),
    (1, [("nap", _P.per_message_overhead_s), ("hold", "rx")]),
]

#: Start hops queued behind pending URGENT events of their time: a
#: spawned transfer's start, and an actor's own urgent hop, each ahead
#: of an URGENT-started send on the same TX.
HOP_BEHIND_URGENT = [
    (0, [("spawn", 1, SMALL), ("send", 2, SMALL, URGENT, False)]),
    (0, [("hop",), ("send", 3, SMALL, URGENT, True), ("send", 1, 0, URGENT, False)]),
    (3, [("send", 0, SMALL, URGENT, True), ("hop",), ("send", 0, LARGE, NORMAL, True)]),
]
#: A NORMAL-started send at the time node 0's TX passes from one holder
#: to a queued one: the grant's push precedes the hop's, so the send
#: queues behind the new holder.
NORMAL_BEHIND_GRANT = [
    (0, [("hold", "tx")]),
    (0, [("hold", "tx")]),
    (0, [("nap", D_SMALL), ("send", 1, SMALL, NORMAL, False)]),
]
#: A landing that frees node 1's RX and node 0's TX, each with a queued
#: holder, ends its send on the end hop after both grants.
END_AFTER_RELEASES = [
    (0, [("send", 1, SMALL, None, True), ("nap", 0.0)]),
    (0, [("nap", _P.per_message_overhead_s), ("hold", "tx")]),
    (1, [("nap", _P.per_message_overhead_s), ("hold", "rx")]),
]
#: Loopback sends with start and end hops, beside wire sends.
LOOPBACK_HOPS = [
    (1, [("send", 1, SMALL, URGENT, True), ("send", 1, 0, NORMAL, False)]),
    (1, [("send", 0, SMALL, NORMAL, True), ("send", 1, SMALL, None, True)]),
]

CASES = {
    "single-sends": [SINGLE_SENDS],
    "hop-behind-urgent": [HOP_BEHIND_URGENT],
    "normal-behind-grant": [NORMAL_BEHIND_GRANT],
    "end-after-releases": [END_AFTER_RELEASES],
    "loopback-hops": [LOOPBACK_HOPS],
    "release-order": [RELEASE_ORDER],
    "shared-nic": [SHARED_NIC],
    "queued-behind": [QUEUED_BEHIND],
    "loopback-zero": [LOOPBACK_ZERO],
    "urgent-pending": [URGENT_PENDING],
    "done-after-release": [DONE_AFTER_RELEASE],
    "random": range(60),
}


@pytest.mark.parametrize("kernel", ["c", "python"])
@pytest.mark.parametrize("case", list(CASES))
def test_transfer_all_matches_process_per_move_reference(monkeypatch, kernel, case):
    for plans in CASES[case]:
        chain = _scenario(monkeypatch, kernel, False, plans)
        assert chain == _scenario(monkeypatch, kernel, True, plans), f"plans {plans}"


def _nic_state(net: Network) -> list[tuple[int, ...]]:
    return [
        (len(n.tx.users), len(n.tx.queue), len(n.rx.users), len(n.rx.queue)) for n in net.nics
    ]


#: Per phase: when the victim starts its send, its start hop and end
#: hop, and when it is interrupted (the "done" interrupter first yields
#: a NORMAL hop, so it runs after the landing's callbacks).
_PHASES = {
    "hop": (D_SMALL / 2, NORMAL, False, D_SMALL / 2),
    "tx": (0.0, None, False, D_SMALL / 2),
    "rx": (0.0, None, False, D_SMALL / 2),
    "wire": (0.0, None, False, D_SMALL / 2),
    "done": (0.0, URGENT, True, D_SMALL),
}


def _interrupted_send(monkeypatch, kernel: str, reference: bool, phase: str) -> tuple:
    """Node 0's SMALL message to node 1, interrupted while it waits on
    its start hop, on node 0's TX (busy with a LARGE message to node 2),
    on node 1's RX (busy with one from node 2), while it is on the wire,
    or between its landing and its end hop (:data:`_PHASES`); then four
    sends start.  Returns the log, the NIC states before and after the
    interrupt, and the counters."""
    if reference:
        _use_reference(monkeypatch)
    sim = _simulator(kernel)
    net = Network(sim, NODES)
    log: list[tuple] = []
    states = []
    starts_at, start, end, interrupt_at = _PHASES[phase]

    def send(tag, src, dst, nbytes, at=0.0, start=None, end=False):
        if at:
            yield sim.timeout(at)
        try:
            yield from net.transfer(src, dst, nbytes, start, end)
        except Interrupt:
            log.append((sim.now, tag, "interrupted"))
            return
        log.append((sim.now, tag, net.messages_delivered))

    if phase == "tx":
        sim.process(send("blocker", 0, 2, LARGE))
    elif phase == "rx":
        sim.process(send("blocker", 2, 1, LARGE))
    victim = sim.process(send("victim", 0, 1, SMALL, starts_at, start, end))

    def interrupter():
        yield sim.timeout(interrupt_at)
        if phase == "done":
            yield sim.timeout(0)
        states.append(_nic_state(net))
        victim.interrupt("request-timeout")
        yield sim.urgent_hop()  # behind the interrupt's delivery
        states.append(_nic_state(net))
        for i, (src, dst) in enumerate([(0, 1), (3, 1), (0, 3), (2, 0)]):
            sim.process(send(i, src, dst, SMALL))

    sim.process(interrupter())
    sim.run()
    monkeypatch.undo()
    counters = [(n.bytes_sent, n.bytes_received) for n in net.nics], net.messages_delivered
    return log, states, _nic_state(net), counters


#: Node 0's TX / node 1's RX as (users, queue) before the interrupt, per
#: phase; afterwards the victim holds and queues for nothing.
_VICTIM_WAITS = {
    "hop": ((0, 0), (0, 0)),
    "tx": ((1, 1), (0, 0)),
    "rx": ((1, 0), (1, 1)),
    "wire": ((1, 0), (1, 0)),
    "done": ((0, 0), (0, 0)),
}


@pytest.mark.parametrize("kernel", ["c", "python"])
@pytest.mark.parametrize("phase", list(_PHASES))
def test_interrupted_transfer_matches_the_generator(monkeypatch, kernel, phase):
    chain = _interrupted_send(monkeypatch, kernel, False, phase)
    assert chain == _interrupted_send(monkeypatch, kernel, True, phase)
    log, (before, after), end, (_, messages) = chain
    tx0, rx1 = _VICTIM_WAITS[phase]
    assert (before[0][:2], before[1][2:]) == (tx0, rx1)
    blocker_tx = 1 if phase == "tx" else 0
    blocker_rx = 1 if phase == "rx" else 0
    assert (after[0][:2], after[1][2:]) == ((blocker_tx, 0), (blocker_rx, 0))
    assert (_PHASES[phase][3], "victim", "interrupted") in log
    assert end == [(0, 0, 0, 0)] * NODES
    # Only a message interrupted after its landing was delivered.
    assert messages == 4 + (phase in ("tx", "rx")) + (phase == "done")


def _live_moves() -> int:
    return sum(
        type(o).__name__ == "Move" and type(o).__module__ == "repro.sim._cq"
        for o in gc.get_objects()
    )


def test_stopped_run_leaves_no_move_alive():
    """A Move forms reference cycles with its events until it lands, so
    the collector must see it.  Closing a stopped transfer aborts its
    move, whose releases grant queued requests (as the generator's
    ``finally`` does), so part of the garbage outlives the first pass
    and the test collects until a pass finds nothing."""
    sim = _simulator("c")
    net = Network(sim, NODES)

    def sender(src, dst, nbytes):
        yield from net.transfer(src, dst, nbytes)

    def fanner():
        yield net.transfer_all([(0, 1, SMALL), (2, 1, LARGE), (3, 3, SMALL)])

    for src, dst in [(0, 1), (0, 2), (2, 1), (3, 1), (1, 0)]:
        sim.process(sender(src, dst, LARGE))
    sim.process(fanner())
    sim.run(until=D_LARGE * 1.5)  # on the wire, granted and queued moves
    assert _live_moves() > 0
    del sim, net
    while gc.collect():
        pass
    assert _live_moves() == 0


@pytest.mark.parametrize("setup", ["net-fault", "sanitizer", "watchdog"])
def test_faulted_or_observed_transfer_takes_the_generator(monkeypatch, setup):
    sim = Simulator(sanitize=setup == "sanitizer")
    if setup == "net-fault" and sim._accel is None:
        pytest.skip("no C accelerator")
    net = Network(sim, NODES)
    calls = []
    if sim._accel is not None:
        move = sim._accel.move
        monkeypatch.setattr(sim._accel, "move", lambda *a: calls.append(a[1:4]) or move(*a))
    if setup == "net-fault":
        net.fault = NetFault(sim, random.Random(0))
    elif setup == "watchdog":
        StallWatchdog(sim)

    def sender():
        yield from net.transfer(0, 1, SMALL)
        yield from net.transfer(1, 2, SMALL)

    sim.run_until_event(sim.process(sender()))
    assert net.messages_delivered == 2 and calls == []
    if setup == "net-fault":
        net.fault = None
        sim.run_until_event(sim.process(sender()))
        assert net.messages_delivered == 4 and calls == [(0, 1, SMALL), (1, 2, SMALL)]


def test_watchdog_created_mid_transfer_sees_the_chains_later_requests():
    """The chain's requests and releases test for the ledger on every
    call, so a watchdog installed while a message waits on its TX sees
    that message's RX request and its release."""
    sim = _simulator("c")
    net = Network(sim, NODES)

    def sender(dst, nbytes):
        yield from net.transfer(0, dst, nbytes)

    sim.process(sender(2, LARGE))
    sim.process(sender(1, SMALL))  # queues on node 0's TX
    sim.run(until=D_LARGE / 2)
    StallWatchdog(sim)
    ledger = sim._ledger
    assert ledger is not None and not ledger.requests
    sim.run(until=D_LARGE + D_SMALL / 2)  # the SMALL message is on the wire
    records = list(ledger.requests.values())
    assert [(r.resource, r.state, r.owner) for r in records] == [
        (net.nics[1].rx, "granted", None)
    ]
    sim.run(until=D_LARGE + 2 * D_SMALL)
    assert not ledger.requests and records[0].state == "released"
    assert net.messages_delivered == 2


class _BrokenAbort:
    """The accelerator with a chain whose abort() releases nothing."""

    def __init__(self, mod):
        self._mod = mod

    def __getattr__(self, name):
        return getattr(self._mod, name)

    def move(self, *args):
        move = self._mod.move(*args)
        return SimpleNamespace(landed=move.landed, done=move.done, abort=lambda: None)


def test_broken_chain_disables_the_accelerator(monkeypatch):
    if sim_core._CQ is None:
        pytest.skip("no C accelerator")
    assert sim_core._chain_selftest(sim_core._CQ)
    assert not sim_core._chain_selftest(_BrokenAbort(sim_core._CQ))
    monkeypatch.setattr(sim_core, "_chain_selftest", lambda mod: False)
    assert not sim_core._accel_selftest(sim_core._CQ)


def test_hand_cases_exercise_the_ties_they_name(monkeypatch):
    log, _, _ = _scenario(monkeypatch, "python", False, URGENT_PENDING)
    # The spawned transfer (0 -> 1) lands first; the fan's move (0 -> 2)
    # waited for node 0's TX.
    landed = [e for e in log if e[2:] in (((0, 0),), (0, 1))]
    assert [e[2:] for e in landed] == [((0, 0),), (0, 1)]
    assert [e[0] for e in landed] == pytest.approx([D_SMALL, 2 * D_SMALL])
    log, _, _ = _scenario(monkeypatch, "python", False, DONE_AFTER_RELEASE)
    # The holder's grant and the fan's end share a time; the grant is first.
    assert [e[2:] for e in log[1:3]] == [(1, 1, "held"), (0, 0)]
    assert log[1][0] == log[2][0] == pytest.approx(D_SMALL)
    _, nics, messages = _scenario(monkeypatch, "python", False, LOOPBACK_ZERO)
    # Loopback moves count as delivered but move no NIC bytes.
    assert messages == 7 and nics[1] == (0, SMALL)


def _spawned_names(monkeypatch, sim: Simulator, net: Network) -> list[str]:
    names: list[str] = []
    spawn = Simulator.process

    def counting(sim, gen, name=None, daemon=False):
        names.append(name or "")
        return spawn(sim, gen, name=name, daemon=daemon)

    monkeypatch.setattr(Simulator, "process", counting)
    done = net.transfer_all([(0, 1, SMALL), (0, 2, SMALL), (3, 3, 0)], name="fan")
    monkeypatch.undo()
    sim.run(until=1.0)
    assert done.processed and net.messages_delivered == 3
    assert [n.bytes_sent for n in net.nics] == [2 * SMALL, 0, 0, 0]
    return names


@pytest.mark.parametrize("kernel", ["c", "python"])
def test_nominal_fan_builds_no_process(monkeypatch, kernel):
    sim = _simulator(kernel)
    assert _spawned_names(monkeypatch, sim, Network(sim, NODES)) == []


@pytest.mark.parametrize("setup", ["net-fault", "sanitizer", "watchdog"])
def test_fallback_spawns_one_process_per_move(monkeypatch, setup):
    sim = Simulator(sanitize=setup == "sanitizer")
    net = Network(sim, NODES)
    if setup == "net-fault":
        net.fault = NetFault(sim, random.Random(0))
    elif setup == "watchdog":
        StallWatchdog(sim)
    assert _spawned_names(monkeypatch, sim, net) == ["fan"] * 3


def test_fallback_keeps_the_fault_gate():
    sim = Simulator()
    net = Network(sim, NODES)
    net.fault = NetFault(sim, random.Random(0))
    net.fault.extra_latency_s = 1e-3
    done = net.transfer_all([(0, 1, SMALL), (2, 1, SMALL)])
    sim.run()
    assert done.processed and net.fault.n_delayed == 2
    assert sim.now == pytest.approx(1e-3 + 2 * D_SMALL)


@pytest.mark.parametrize("sanitize", [False, True])
def test_negative_move_rejected_at_the_call(sanitize):
    sim = Simulator(sanitize=sanitize)
    with pytest.raises(ValueError):
        Network(sim, NODES).transfer_all([(0, 1, SMALL), (0, 2, -1)])


def _load_process_counts():
    path = Path(__file__).resolve().parent.parent / "benchmarks" / "process_counts.py"
    spec = importlib.util.spec_from_file_location("_process_counts", path)
    assert spec is not None and spec.loader is not None
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@pytest.mark.parametrize(
    "workload, sites",
    [("dualpar-cells", {"mc-get", "mc-put"}), ("collective-cells", {"coll-xchg"})],
)
def test_cells_fan_out_without_a_process_per_move(monkeypatch, workload, sites):
    """The memcache batches and the collective exchange go through
    transfer_all on the smoke cells and build no process per message."""
    fanned: set[str] = set()
    fan = Network.transfer_all

    def noting(self, moves, name="transfer"):
        fanned.add(name)
        return fan(self, moves, name)

    monkeypatch.setattr(Network, "transfer_all", noting)
    counts = _load_process_counts().count_processes(workload, smoke=True)
    assert fanned == sites
    assert sum(counts.values()) > 0
    assert not sites & set(counts)
