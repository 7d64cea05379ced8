"""Unit tests for the deterministic fault-injection layer (repro.faults)."""

import hashlib
import random
from pathlib import Path

import pytest

from repro.cache.chunk import ChunkKey
from repro.cache.memcache import GlobalCache
from repro.cli import main
from repro.cluster import ClusterSpec, build_cluster
from repro.disk.drive import DiskParams
from repro.faults import (
    FAULT_KINDS,
    DiskFault,
    FaultError,
    FaultEvent,
    FaultInjector,
    FaultPlan,
    NetFault,
    RetryPolicy,
    ServerHealth,
)
from repro.net.ethernet import Network
from repro.sim import SimulationError, Simulator


def small_spec(**kw):
    defaults = dict(
        n_compute_nodes=2,
        n_data_servers=3,
        disk=DiskParams(capacity_bytes=2 * 10**9),
        placement="packed",
    )
    defaults.update(kw)
    return ClusterSpec(**defaults)


# ----------------------------------------------------------------- FaultPlan


def test_fault_kinds_catalogue():
    assert set(FAULT_KINDS) == {
        "disk_failslow",
        "server_crash",
        "net_degrade",
        "net_partition",
        "cache_evict",
    }


def test_event_validation_rejects_bad_inputs():
    with pytest.raises(ValueError):
        FaultEvent(kind="meteor_strike", at_s=0.0)
    with pytest.raises(ValueError):
        FaultEvent(kind="server_crash", at_s=-1.0)
    with pytest.raises(ValueError):
        FaultEvent(kind="server_crash", at_s=2.0, until_s=1.0)
    with pytest.raises(ValueError):
        FaultEvent(kind="disk_failslow", at_s=0.0, transfer_factor=0.5)
    with pytest.raises(ValueError):
        FaultEvent(kind="net_degrade", at_s=0.0)  # no latency nor jitter
    with pytest.raises(ValueError):
        FaultEvent(kind="net_partition", at_s=0.0, until_s=1.0)  # no nodes
    with pytest.raises(ValueError):
        # An unhealed partition would hang blocked senders forever.
        FaultEvent(kind="net_partition", at_s=0.0, nodes=(1,))


def test_evicted_nodes_defaults_to_target():
    ev = FaultEvent(kind="cache_evict", at_s=0.0, target=3)
    assert ev.evicted_nodes == (3,)
    ev2 = FaultEvent(kind="cache_evict", at_s=0.0, nodes=(1, 2))
    assert ev2.evicted_nodes == (1, 2)


def test_plan_json_round_trip(tmp_path):
    plan = FaultPlan(
        seed=7,
        events=(
            FaultEvent(kind="disk_failslow", at_s=0.5, until_s=2.0, target=1),
            FaultEvent(kind="net_partition", at_s=1.0, until_s=1.5, nodes=(0, 3)),
        ),
        retry=RetryPolicy(base_timeout_s=0.5, max_retries=4),
    )
    assert FaultPlan.from_json(plan.to_json()) == plan
    path = tmp_path / "plan.json"
    plan.dump(path)
    assert FaultPlan.load(path) == plan


def test_plan_from_dict_rejects_unknown_fields():
    with pytest.raises(ValueError, match="unknown FaultEvent"):
        FaultPlan.from_dict(
            {"events": [{"kind": "server_crash", "at_s": 0.0, "blast_radius": 9}]}
        )
    with pytest.raises(ValueError, match="unknown RetryPolicy"):
        FaultPlan.from_dict({"retry": {"jitterbug": 1}})


def test_plan_file_with_unknown_top_level_key_is_rejected(tmp_path):
    # A misspelt "events" must not load as an empty plan and run nominally.
    path = tmp_path / "typo.json"
    path.write_text('{"seed": 1, "evnts": [{"kind": "server_crash", "at_s": 0.0}]}')
    with pytest.raises(ValueError, match=r"unknown FaultPlan fields: \['evnts'\]"):
        FaultPlan.load(path)
    with pytest.raises(ValueError, match="FaultPlan"):
        main(["run", "--workload", "mpi-io-test", "--nprocs", "2", "--size-mb", "1",
              "--compute-nodes", "2", "--data-servers", "2", "--faults", str(path)])


@pytest.mark.parametrize(
    "raw, expected",
    [
        ({}, FaultPlan()),
        ({"seed": "3"}, FaultPlan(seed=3)),
        (
            {"events": [{"kind": "cache_evict", "at_s": 1, "nodes": [0, 2]}]},
            FaultPlan(events=(FaultEvent(kind="cache_evict", at_s=1, nodes=(0, 2)),)),
        ),
        (
            {"retry": {"base_timeout_s": 1, "max_retries": 3}},
            FaultPlan(retry=RetryPolicy(base_timeout_s=1, max_retries=3)),
        ),
    ],
)
def test_plan_decoding_is_pinned(raw, expected):
    # repr, not ==: 1 == 1.0, but the experiment fingerprint hashes reprs,
    # so an int where a float is declared must stay an int.
    assert repr(FaultPlan.from_dict(raw)) == repr(expected)


#: sha256 of ``FaultPlan.load(p).to_json()`` for every example plan.
_EXAMPLE_PLAN_JSON_SHA256 = {
    "crash_in_flight": "6441ccf2118ed0c9b9a1125b83499fd0edc43fc9c35f5d46e592b6bbaa385d66",
    "crash_recover": "bb82c68c02b7204bb1ce9f61c2eca3ce5b24220d36a46e4ba460252cd205ae8f",
    "early_mix": "00d3919c4d4e5a5c51e0fef018f14358776f7f60b138bc7835533611219a1333",
    "failslow": "6c22d70be75b9494edf7a8ba995105fe89f3a6ac0a92f352d315e8bf355228ac",
    "partition_evict": "1889f902fcca6eba0704b38763e4e1881ea21a3c2a2a20a27a3680e8db3acb07",
}


def test_example_plan_json_bytes_are_pinned():
    plans = Path(__file__).resolve().parent.parent / "examples" / "faultplans"
    assert {
        p.stem: hashlib.sha256(FaultPlan.load(p).to_json().encode()).hexdigest()
        for p in sorted(plans.glob("*.json"))
    } == _EXAMPLE_PLAN_JSON_SHA256


def test_every_fault_kind_has_an_example_plan():
    plans = Path(__file__).resolve().parent.parent / "examples" / "faultplans"
    covered = {
        ev.kind for p in plans.glob("*.json") for ev in FaultPlan.load(p).events
    }
    assert set(FAULT_KINDS) <= covered, sorted(set(FAULT_KINDS) - covered)


def test_plan_rejects_the_removed_mirror_fault():
    with pytest.raises(ValueError, match="unknown fault kind 'mirror_fail'"):
        FaultPlan.from_dict({"events": [{"kind": "mirror_fail", "at_s": 0.0}]})
    with pytest.raises(ValueError, match=r"unknown FaultEvent fields: \['member'\]"):
        FaultPlan.from_dict(
            {"events": [{"kind": "disk_failslow", "at_s": 0.0, "member": 1}]}
        )


# --------------------------------------------------------------- RetryPolicy


def test_retry_policy_timeout_is_size_aware():
    pol = RetryPolicy(base_timeout_s=1.0, timeout_per_byte_s=1e-6)
    assert pol.timeout_for(0) == 1.0
    assert pol.timeout_for(10_000_000) == pytest.approx(11.0)


def test_retry_policy_backoff_doubles_and_caps():
    pol = RetryPolicy(backoff_base_s=0.01, backoff_factor=2.0, backoff_max_s=0.05)
    assert pol.backoff_s(1) == pytest.approx(0.01)
    assert pol.backoff_s(2) == pytest.approx(0.02)
    assert pol.backoff_s(3) == pytest.approx(0.04)
    assert pol.backoff_s(4) == pytest.approx(0.05)  # capped
    assert pol.backoff_s(10) == pytest.approx(0.05)


def test_retry_policy_validation():
    with pytest.raises(ValueError):
        RetryPolicy(base_timeout_s=0.0)
    with pytest.raises(ValueError):
        RetryPolicy(max_retries=-1)
    with pytest.raises(ValueError):
        RetryPolicy(backoff_factor=0.5)
    with pytest.raises(ValueError, match="backoff_jitter"):
        RetryPolicy(backoff_jitter="equal")


def test_unjittered_backoff_ignores_rng():
    # The default policy must replay identically whether or not the
    # injector hands it the plan RNG (pre-jitter plans stay bit-exact).
    pol = RetryPolicy(backoff_base_s=0.01, backoff_factor=2.0, backoff_max_s=0.05)
    rng = random.Random(1)
    assert [pol.backoff_s(a, rng=rng) for a in range(1, 5)] == [
        pol.backoff_s(a) for a in range(1, 5)
    ]
    assert rng.random() == random.Random(1).random()  # RNG never consumed


def test_full_jitter_is_bounded_and_seeded():
    pol = RetryPolicy(
        backoff_base_s=0.01,
        backoff_factor=2.0,
        backoff_max_s=0.05,
        backoff_jitter="full",
    )
    plain = RetryPolicy(backoff_base_s=0.01, backoff_factor=2.0, backoff_max_s=0.05)
    sleeps = [pol.backoff_s(a, rng=random.Random(42)) for a in range(1, 8)]
    for attempt, s in enumerate(sleeps, start=1):
        assert 0.0 <= s <= plain.backoff_s(attempt)  # under the unjittered ceiling
    # Same seed, same sleeps -- and without an RNG it falls back to the ceiling.
    assert sleeps == [pol.backoff_s(a, rng=random.Random(42)) for a in range(1, 8)]
    assert pol.backoff_s(3) == plain.backoff_s(3)


def test_backoff_jitter_round_trips_through_json():
    plan = FaultPlan(
        seed=3,
        events=(FaultEvent(kind="server_crash", at_s=1.0, until_s=2.0, target=0),),
        retry=RetryPolicy(backoff_jitter="full"),
    )
    restored = FaultPlan.from_json(plan.to_json())
    assert restored == plan
    assert restored.retry.backoff_jitter == "full"


# -------------------------------------------------------------- ServerHealth


def test_server_health_transitions_and_recovery_event():
    sim = Simulator()
    h = ServerHealth(sim, 3)
    assert h.live_servers() == [0, 1, 2]
    assert h.is_up(1)
    h.mark(1, "down")
    assert not h.is_up(1)
    assert h.live_servers() == [0, 2]
    # "slow" servers are still live (they answer, slowly).
    h.mark(2, "slow")
    assert h.is_up(2)
    assert h.live_servers() == [0, 2]
    ev = h.recovery_event(1)
    assert not ev.triggered
    assert h.recovery_event(1) is ev  # cached while down
    h.mark(1, "up")
    assert ev.triggered
    # Recovery event of an up server fires immediately.
    assert h.recovery_event(0).triggered
    assert [(s, state) for _, s, state in h.transitions] == [
        (1, "down"),
        (2, "slow"),
        (1, "up"),
    ]


def test_server_health_same_state_mark_is_noop():
    sim = Simulator()
    h = ServerHealth(sim, 2)
    h.mark(0, "down")
    h.mark(0, "down")
    assert len(h.transitions) == 1


# ------------------------------------------------------------------ NetFault


def test_net_fault_gate_delay_is_deterministic():
    import random

    def run(seed):
        sim = Simulator()
        nf = NetFault(sim, random.Random(seed))
        nf.extra_latency_s = 0.001
        nf.jitter_s = 0.002
        times = []

        def sender():
            for _ in range(5):
                yield from nf.gate(0, 1)
                times.append(sim.now)

        sim.run_until_event(sim.process(sender()))
        return times

    assert run(3) == run(3)
    assert run(3) != run(4)
    assert all(t > 0 for t in run(3))


def test_net_fault_partition_blocks_until_heal():
    sim = Simulator()
    nf = NetFault(sim, __import__("random").Random(0))
    nf.partition((1,))
    with pytest.raises(FaultError):
        nf.partition((2,))
    assert nf.crosses_cut(0, 1)
    assert not nf.crosses_cut(0, 2)
    assert not nf.crosses_cut(1, 1)  # both sides of the cut: local traffic
    arrived = []

    def sender():
        yield from nf.gate(0, 1)
        arrived.append(sim.now)

    def healer():
        yield sim.timeout(1.0)
        nf.heal()

    sim.process(sender())
    sim.process(healer())
    sim.run()
    assert arrived == [1.0]
    assert nf.n_blocked == 1


# ----------------------------------------------------------------- DiskFault


def _one_read(cluster, nbytes=512 * 1024):
    sim = cluster.sim
    f = cluster.fs.create("f.dat", 4 * 1024 * 1024)
    client = cluster.clients[0]

    def proc():
        yield from client.io(f, 0, nbytes, "R", stream_id=1)

    t0 = sim.now
    sim.run_until_event(sim.process(proc()))
    return sim.now - t0


def test_disk_failslow_slows_service_and_reverts():
    base = _one_read(build_cluster(small_spec()))
    slow_cluster = build_cluster(small_spec())
    for ds in slow_cluster.data_servers:
        ds.device.fault = DiskFault(transfer_factor=10.0, extra_seek_s=0.005)
    degraded = _one_read(slow_cluster)
    assert degraded > base * 1.5
    # Clearing the fault restores nominal behavior exactly.
    clear_cluster = build_cluster(small_spec())
    for ds in clear_cluster.data_servers:
        ds.device.fault = DiskFault(transfer_factor=10.0)
        ds.device.fault = None
    assert _one_read(clear_cluster) == pytest.approx(base)


# -------------------------------------------------------------- GlobalCache


def _cache(n=3):
    sim = Simulator()
    net = Network(sim, n_nodes=n)
    return sim, GlobalCache(sim, net, compute_node_ids=list(range(n)))


def test_cache_evict_drops_clean_migrates_dirty():
    sim, cache = _cache(3)
    keys = [ChunkKey("f", i) for i in range(6)]

    def fill():
        for i, k in enumerate(keys):
            dirty = (100, 200) if i % 2 else None
            yield from cache.put(k, from_node=0, dirty_range=dirty)

    sim.run_until_event(sim.process(fill()))
    victim = cache.owner_of(keys[0])
    owned = [k for k in keys if cache.owner_of(k) == victim]
    dirty_owned = [k for k in owned if cache.peek(k).dirty]
    evicted, migrated = cache.fail_node(victim)
    assert evicted == len(owned) - len(dirty_owned)
    assert migrated == len(dirty_owned)
    for k in dirty_owned:
        c = cache.peek(k)
        assert c is not None and c.owner_node != victim
    for k in owned:
        if k not in dirty_owned:
            assert cache.peek(k) is None
    assert victim not in cache._ring
    cache.restore_node(victim)
    assert victim in cache._ring


def test_cache_evict_validation():
    _, cache = _cache(2)
    with pytest.raises(ValueError):
        cache.fail_node(99)
    cache.fail_node(0)
    with pytest.raises(ValueError):
        cache.fail_node(0)  # already evicted
    with pytest.raises(ValueError):
        cache.fail_node(1)  # last node
    with pytest.raises(ValueError):
        cache.restore_node(1)  # not evicted


# ---------------------------------------------------------- DataServer crash


def test_server_crash_drops_requests_and_recover_restores():
    cluster = build_cluster(small_spec())
    sim = cluster.sim
    ds = cluster.data_servers[0]
    ds.enable_fault_tracking()
    f = cluster.fs.create("c.dat", 4 * 1024 * 1024)
    client = cluster.clients[0]
    ds.crash()
    assert ds.crashed
    with pytest.raises(SimulationError):
        ds.crash()
    from repro.pfs.dataserver import ServerRequest

    dead = ds.handle(
        ServerRequest(file_name="c.dat", object_offset=0, length=4096, op="R",
                      stream_id=1)
    )
    sim.run(until=1.0)
    assert not dead.triggered
    assert ds.n_dropped_requests == 1
    ds.recover()
    with pytest.raises(SimulationError):
        ds.recover()
    assert not ds.crashed
    assert ds.n_crashes == 1 and ds.n_recoveries == 1

    def proc():
        yield from client.io(f, 0, 64 * 1024, "R", stream_id=1)

    sim.run_until_event(sim.process(proc()))
    assert client.bytes_read == 64 * 1024


def test_crashed_server_drops_single_and_list_requests_alike():
    """A crashed server counts one dropped request per range, whether the
    ranges came one per message or packed in one list message, spawns
    no service for either, and fires neither completion event."""
    cluster = build_cluster(small_spec())
    sim = cluster.sim
    ds = cluster.data_servers[0]
    ds.enable_fault_tracking()
    cluster.fs.create("c.dat", 4 * 1024 * 1024)
    from repro.pfs.dataserver import ServerRequest

    def req(i):
        return ServerRequest(file_name="c.dat", object_offset=i * 4096, length=4096,
                             op="W", stream_id=1, req_id=i)

    ds.crash()
    single = [ds.handle(req(i)) for i in range(3)]
    assert ds.n_dropped_requests == 3
    batch = ds.handle_list([req(i) for i in range(3, 8)])
    assert ds.n_dropped_requests == 3 + 5
    assert ds._service_procs == {}
    sim.run(until=1.0)
    assert not any(ev.triggered for ev in single + [batch])
    assert ds.n_requests == 0 and ds.commit_log == []


def test_server_crash_interrupts_inflight_service():
    cluster = build_cluster(small_spec())
    sim = cluster.sim
    ds = cluster.data_servers[0]
    ds.enable_fault_tracking()
    cluster.fs.create("c.dat", 4 * 1024 * 1024)
    from repro.pfs.dataserver import ServerRequest

    done = ds.handle(
        ServerRequest(file_name="c.dat", object_offset=0, length=1 << 20, op="R",
                      stream_id=1)
    )

    def crasher():
        yield sim.timeout(1e-4)
        ds.crash()

    sim.process(crasher())
    sim.run(until=5.0)
    assert not done.triggered  # the request died with the server
    assert ds._service_procs == {}


def test_commit_log_is_exactly_once_per_request_id():
    cluster = build_cluster(small_spec())
    sim = cluster.sim
    ds = cluster.data_servers[0]
    ds.enable_fault_tracking()
    cluster.fs.create("c.dat", 4 * 1024 * 1024)
    from repro.pfs.dataserver import ServerRequest

    def send(rid):
        return ds.handle(
            ServerRequest(file_name="c.dat", object_offset=0, length=4096, op="W",
                          stream_id=1, req_id=rid)
        )

    send(7)
    send(7)  # duplicate delivery (a retry whose first attempt also landed)
    send(8)
    sim.run(until=5.0)
    assert sorted(ds.commit_log) == [7, 8]


# ---------------------------------------------------------- FaultInjector


def test_injector_validates_plan_against_cluster():
    cluster = build_cluster(small_spec())
    with pytest.raises(FaultError, match="3 data servers"):
        FaultInjector(
            cluster,
            FaultPlan(events=(FaultEvent(kind="server_crash", at_s=0.0, target=9),)),
        )
    with pytest.raises(FaultError, match="not a compute node"):
        FaultInjector(
            cluster,
            FaultPlan(events=(FaultEvent(kind="cache_evict", at_s=0.0, target=5),)),
        )
    with pytest.raises(FaultError, match="out of range"):
        FaultInjector(
            cluster,
            FaultPlan(
                events=(
                    FaultEvent(kind="net_partition", at_s=0.0, until_s=1.0,
                               nodes=(99,)),
                )
            ),
        )


def test_injector_empty_plan_installs_nothing():
    cluster = build_cluster(small_spec())
    inj = FaultInjector(cluster, FaultPlan(seed=5))
    inj.install()
    assert cluster.network.fault is None
    assert inj.health is None
    assert all(c.faults is None for c in cluster.clients)
    assert all(ds.commit_log is None for ds in cluster.data_servers)
    with pytest.raises(FaultError):
        inj.install()  # double install


def test_injector_applies_and_reverts_on_schedule():
    cluster = build_cluster(small_spec())
    plan = FaultPlan(
        seed=1,
        events=(
            FaultEvent(kind="disk_failslow", at_s=0.5, until_s=1.5, target=1,
                       transfer_factor=3.0),
        ),
    )
    inj = FaultInjector(cluster, plan)
    inj.install()
    sim = cluster.sim
    sim.run(until=0.6)
    assert cluster.data_servers[1].device.fault is not None
    assert inj.health.state_of(1) == "slow"
    sim.run(until=2.0)
    assert cluster.data_servers[1].device.fault is None
    assert inj.health.state_of(1) == "up"
    assert [(k, p) for _, k, p, _ in inj.log] == [
        ("disk_failslow", "apply"),
        ("disk_failslow", "revert"),
    ]


def test_injector_next_request_id_monotone():
    cluster = build_cluster(small_spec())
    inj = FaultInjector(cluster, FaultPlan())
    ids = [inj.next_request_id() for _ in range(5)]
    assert ids == [1, 2, 3, 4, 5]
