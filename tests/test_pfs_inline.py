"""Inline single-piece PFS calls and inline data-server service.

Nominally a :meth:`PfsClient.io` call that splits into one stripe piece
runs the piece inside the caller's process, and a piece runs the server's
service inside its own process (``DataServer.call``).  Hops at the points
where the spawned processes would have started or woken their joiners
keep every other event in its ``(time, priority, arrival)`` slot.  These
tests hold the inline form against a reference kept here -- the
process-per-piece client and process-per-request server -- on a
tie-heavy micro-cluster: several ranks per node issue identical requests
at t=0, and page-cache hits give them equal service times, so any slip
in push order shows up as a different result.
"""

from __future__ import annotations

import functools
import random

import pytest

from repro import JobSpec, run_experiment
from repro.cluster import ClusterSpec, builder
from repro.disk.drive import DiskParams
from repro.faults import FaultEvent, FaultPlan
from repro.mpi.ops import IoOp, Segment
from repro.net.ethernet import NetworkParams
from repro.pfs.client import CONTROL_MSG_BYTES, PfsClient
from repro.pfs.dataserver import REQUEST_CPU_S, DataServer
from repro.runner.parallel import SlimExperimentResult
from repro.service.catalog import canonical_json, result_to_dict
from repro.sim import HeapQueue, Simulator, all_of
from repro.sim import core as sim_core
from repro.workloads.base import FileSpec, Workload

UNIT = 64 * 1024


class _TieHeavy(Workload):
    """Every rank reads the same 4 KB (one miss, then page-cache hits of
    equal cost) around writing a 4 KB piece of its own and one read that
    straddles a stripe boundary (the two-piece path)."""

    name = "tie-heavy"

    def ops(self, rank, size):
        yield IoOp("t.dat", "R", (Segment(0, 4096),))
        yield IoOp("t.dat", "R", (Segment(0, 4096),))
        yield IoOp("t.dat", "W", (Segment((rank + 1) * UNIT, 4096),))
        yield IoOp("t.dat", "R", (Segment(UNIT - 2048, 4096),))
        yield IoOp("t.dat", "R", (Segment(0, 4096),))

    def files(self):
        return [FileSpec("t.dat", 64 * UNIT)]


def _spec() -> ClusterSpec:
    return ClusterSpec(
        n_compute_nodes=2,
        n_data_servers=3,
        disk=DiskParams(capacity_bytes=2 * 10**9),
        placement="packed",
    )


def _reference_io(self, f, offset, length, op, stream_id):
    """PfsClient.io in its process-per-piece form (no faults, untraced)."""
    pieces = self.layout.split(offset, length)
    procs = [
        self.sim.process(self._do_piece(f, p, op, stream_id), name="pfs-piece")
        for p in pieces
    ]
    yield all_of(self.sim, procs)
    if op == "R":
        self.bytes_read += length
    else:
        self.bytes_written += length


def _reference_call(self, req):
    """DataServer.call in its process-per-request form."""
    yield self.handle(req)


def _patch(monkeypatch, kernel: str, reference: bool) -> None:
    if kernel == "python":
        monkeypatch.setattr(
            builder, "Simulator", functools.partial(Simulator, queue=HeapQueue())
        )
    elif sim_core._CQ is None:
        pytest.skip("no C accelerator")
    if reference:
        monkeypatch.setattr(PfsClient, "io", _reference_io)
        monkeypatch.setattr(DataServer, "call", _reference_call)


def _run(monkeypatch, kernel: str, reference: bool, **kw):
    """One tie-heavy MPI run; returns (observables, spawned process names)."""
    _patch(monkeypatch, kernel, reference)
    names: list[str] = []
    spawn = Simulator.process

    def counting_process(sim, gen, name=None, daemon=False):
        names.append(name or "")
        return spawn(sim, gen, name=name, daemon=daemon)

    monkeypatch.setattr(Simulator, "process", counting_process)
    res = run_experiment(
        [JobSpec("ties", 8, _TieHeavy(), strategy="vanilla")], cluster_spec=_spec(), **kw
    )
    monkeypatch.undo()
    observed = _counters(res.cluster)
    observed["result"] = canonical_json(
        result_to_dict(SlimExperimentResult.from_full(res))
    )
    return observed, names


_P = NetworkParams()
#: Wire time of a request / a 4 KB reply message, as Network.transfer sums it.
D_CTRL, D_DATA = (
    _P.per_message_overhead_s + _P.latency_s + n / _P.bandwidth_bytes_s
    for n in (CONTROL_MSG_BYTES, CONTROL_MSG_BYTES + 4096)
)
NAPS = [0.0, REQUEST_CPU_S, D_CTRL, D_DATA]


def _random_plans(seed: int, n_clients: int, n_nodes: int) -> list[tuple]:
    """``(node, actions)`` per actor: three on each client node, two on
    each server node.  Messages are as large as PFS messages and naps as
    long as one or as a request's CPU time, so events tie at every turn."""
    rng = random.Random(seed)
    plans = []
    for node in range(n_nodes):
        on_client = node < n_clients
        kinds = ["send", "spawn", "nap", "nap"] + ["io"] * 4 * on_client
        for _ in range(3 if on_client else 2):
            plan = []
            for _ in range(6):
                kind = rng.choice(kinds)
                if kind == "io":
                    offset = rng.choice([0, 0, UNIT, 2 * UNIT, UNIT - 2048, 5 * UNIT])
                    plan.append((kind, rng.choice("RRW"), offset, 4096))
                elif kind == "nap":
                    plan.append((kind, rng.choice(NAPS)))
                else:
                    size = rng.choice([CONTROL_MSG_BYTES, CONTROL_MSG_BYTES + 4096])
                    plan.append((kind, rng.randrange(n_nodes), size))
            plans.append((node, plan))
    return plans


def _scenario(monkeypatch, kernel: str, reference: bool, plans) -> tuple:
    """Hand-driven run of ``plans`` (an int seeds :func:`_random_plans`):
    every actor is released by one gate event at t=0, and the first 4 KB
    of each server object starts in its page cache.  Returns the
    completion log and the counters."""
    _patch(monkeypatch, kernel, reference)
    cluster = builder.build_cluster(_spec())
    sim, net = cluster.sim, cluster.network
    f = cluster.fs.create("t.dat", 64 * UNIT)
    for ds in cluster.data_servers:
        ds.page_cache.insert("t.dat", 0, 4096)
    if isinstance(plans, int):
        plans = _random_plans(plans, len(cluster.clients), net.n_nodes())
    gate = sim.event()
    log: list[tuple] = []

    def sender(src, dst, nbytes, tag):
        yield from net.transfer(src, dst, nbytes)
        log.append((sim.now, tag))

    def actor(tag, node, plan):
        yield gate
        for i, (kind, *args) in enumerate(plan):
            if kind == "io":
                op, offset, length = args
                yield from cluster.clients[node].io(f, offset, length, op, stream_id=tag)
            elif kind == "send":
                yield from net.transfer(node, *args)
            elif kind == "spawn":
                sim.process(sender(node, *args, (tag, i)))
            else:
                yield sim.timeout(*args)
            log.append((sim.now, tag, i))

    for tag, (node, plan) in enumerate(plans):
        sim.process(actor(tag, node, plan))
    gate.succeed()
    sim.run(until=0.5)  # service daemons tick forever; the actors end in ms
    monkeypatch.undo()
    return log, _counters(cluster)


def _counters(cluster) -> dict:
    return {
        "nics": [(n.bytes_sent, n.bytes_received) for n in cluster.network.nics],
        "messages": cluster.network.messages_delivered,
        "servers": [(ds.n_requests, ds.bytes_served) for ds in cluster.data_servers],
    }


#: A tie the random plans rarely hit, for the hop that stands in for
#: ``done``: node 2 is ds0, which owns file offset 0.  A cached read of
#: ds0 ends at D_CTRL + REQUEST_CPU_S, in the same band as a ds0-side
#: send queued just behind the service's CPU time, so the send takes
#: ds0's TX first only if the reply waits for the done event's turn.
DONE_TIE = [
    (0, [("io", "R", 0, 4096)]),
    (2, [("nap", D_CTRL), ("nap", 0.0), ("nap", REQUEST_CPU_S),
         ("send", 1, CONTROL_MSG_BYTES + 4096)]),
]


@pytest.mark.parametrize("kernel", ["c", "python"])
@pytest.mark.parametrize("cases", [[DONE_TIE], range(40)], ids=["done-tie", "random"])
def test_inline_matches_reference_on_hand_driven_ties(monkeypatch, kernel, cases):
    for case in cases:
        assert _scenario(monkeypatch, kernel, False, case) == _scenario(
            monkeypatch, kernel, True, case
        ), f"case {case}"


@pytest.mark.parametrize("kernel", ["c", "python"])
def test_inline_paths_match_process_per_piece_reference(monkeypatch, kernel):
    inline, inline_names = _run(monkeypatch, kernel, reference=False)
    ref, ref_names = _run(monkeypatch, kernel, reference=True)
    assert inline == ref
    # 8 ranks x 5 calls, one of them two pieces: the reference spawns a
    # piece per stripe piece and a service per server request ...
    assert ref_names.count("pfs-piece") == 8 * 6
    assert sum(n.endswith("-svc") for n in ref_names) == 8 * 6
    # ... the inline form only the two pieces of each straddling read,
    # and no service process at all.
    assert inline_names.count("pfs-piece") == 8 * 2
    assert not any(n.endswith("-svc") for n in inline_names)


def test_fault_plan_keeps_process_per_piece_and_per_request(monkeypatch):
    plan = FaultPlan(
        seed=1,
        events=(FaultEvent(kind="disk_failslow", at_s=0.5, until_s=1.0, target=1),),
    )
    _, names = _run(monkeypatch, "python", reference=False, fault_plan=plan)
    assert names.count("pfs-piece") == 8 * 6
    assert sum(n.endswith("-svc") for n in names) == 8 * 6
