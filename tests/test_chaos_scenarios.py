"""Chaos conformance suite: end-to-end faulted runs and property tests.

The contract under test (docs/fault_injection.md):

- every fault kind can ride a full experiment without hanging the
  simulator or crashing the run;
- a fixed (seed, plan) pair is bit-identical across repeats;
- a run with no plan -- or an empty plan -- is bit-identical to a run of
  the pre-fault code path (the injector is a complete no-op);
- DualPar still beats the no-coordination baseline under a single-server
  fail-slow;
- committed writes are exactly-once under arbitrary crash schedules
  (Hypothesis).
"""

from dataclasses import asdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterSpec, build_cluster, paper_spec
from repro.core.config import DualParConfig
from repro.disk.drive import DiskParams
from repro.faults import FaultEvent, FaultInjector, FaultPlan, RetryPolicy
from repro.guard import GuardConfig
from repro.runner import ExperimentSpec, JobSpec, run_experiment, run_experiments
from repro.runner.parallel import experiment_fingerprint
from repro.workloads import Demo, DependentReads, MpiIoTest


def small_spec(**kw):
    defaults = dict(
        n_compute_nodes=2,
        n_data_servers=3,
        disk=DiskParams(capacity_bytes=2 * 10**9),
        placement="packed",
    )
    defaults.update(kw)
    return ClusterSpec(**defaults)


def _run(plan, strategy="dualpar-forced", mb=32, trace=False):
    spec = paper_spec(n_compute_nodes=4, n_data_servers=4, trace_disks=trace)
    return run_experiment(
        [
            JobSpec("job", 8, MpiIoTest(file_size=mb << 20, op="R"),
                    strategy=strategy)
        ],
        cluster_spec=spec,
        limit_s=1e4,
        fault_plan=plan,
    )


def _fingerprint(res):
    jobs = [asdict(j) for j in res.jobs]
    traces = [
        [(r.time, r.lbn, r.nsectors) for r in t.records] if t is not None else None
        for t in res.cluster.traces
    ]
    return jobs, res.makespan_s, traces


# ------------------------------------------------------------- smoke cells


SMOKE_PLANS = {
    "disk_failslow": FaultPlan(
        seed=1,
        events=(
            FaultEvent(kind="disk_failslow", at_s=0.05, until_s=2.0, target=1,
                       transfer_factor=6.0, extra_seek_s=0.002),
        ),
    ),
    "server_crash": FaultPlan(
        seed=2,
        events=(FaultEvent(kind="server_crash", at_s=0.05, until_s=0.5, target=2),),
    ),
    "net_degrade": FaultPlan(
        seed=3,
        events=(
            FaultEvent(kind="net_degrade", at_s=0.0, until_s=3.0,
                       extra_latency_s=0.0005, jitter_s=0.0005),
        ),
    ),
    "net_partition": FaultPlan(
        seed=4,
        events=(FaultEvent(kind="net_partition", at_s=0.05, until_s=0.3, nodes=(0,)),),
    ),
    "cache_evict": FaultPlan(
        seed=5,
        events=(FaultEvent(kind="cache_evict", at_s=0.1, until_s=1.0, target=1),),
    ),
}


@pytest.mark.parametrize("kind", sorted(SMOKE_PLANS))
def test_faulted_run_completes(kind):
    plan = SMOKE_PLANS[kind]
    res = _run(plan)
    assert res.makespan_s < 1e4  # did not hit the simulation limit
    assert all(j.end_s > j.start_s for j in res.jobs)
    assert res.faults is not None
    assert any(k == kind for _, k, _, _ in res.faults.log)


def test_multi_fault_run_completes():
    plan = FaultPlan(
        seed=7,
        events=(
            FaultEvent(kind="server_crash", at_s=0.05, until_s=0.4, target=2),
            FaultEvent(kind="disk_failslow", at_s=0.1, until_s=0.8, target=0,
                       transfer_factor=4.0),
            FaultEvent(kind="net_degrade", at_s=0.0, until_s=5.0,
                       extra_latency_s=0.0002, jitter_s=0.0002),
            FaultEvent(kind="cache_evict", at_s=0.2, until_s=1.5, target=3),
        ),
    )
    res = _run(plan)
    assert res.makespan_s < 1e4
    kinds = {k for _, k, _, _ in res.faults.log}
    assert kinds == {"server_crash", "disk_failslow", "net_degrade", "cache_evict"}


# ------------------------------------------------------------- determinism


def test_fixed_seed_and_plan_is_bit_identical():
    plan = FaultPlan(
        seed=9,
        events=(
            FaultEvent(kind="server_crash", at_s=0.05, until_s=0.3, target=2),
            FaultEvent(kind="net_degrade", at_s=0.0, until_s=5.0,
                       extra_latency_s=0.0003, jitter_s=0.0002),
        ),
    )
    a = _run(plan, trace=True)
    b = _run(plan, trace=True)
    assert _fingerprint(a) == _fingerprint(b)
    assert a.faults.log == b.faults.log
    assert a.faults.n_timeouts == b.faults.n_timeouts


def test_no_plan_and_empty_plan_are_bit_identical():
    """The injector must be a complete no-op for nominal runs: a run
    without a FaultPlan and a run with an empty plan produce identical
    measurements and identical raw disk traces."""
    base = _fingerprint(_run(None, trace=True))
    empty = _run(FaultPlan(seed=123), trace=True)
    assert _fingerprint(empty) == base
    assert empty.faults.log == []
    # And nominal component hooks stay uninstalled.
    assert empty.cluster.network.fault is None
    assert all(c.faults is None for c in empty.cluster.clients)


def test_dualpar_beats_baseline_under_failslow():
    plan = FaultPlan(
        seed=3,
        events=(
            FaultEvent(kind="disk_failslow", at_s=0.0, until_s=1e6, target=1,
                       transfer_factor=6.0),
        ),
    )

    def run(strategy):
        return run_experiment(
            [JobSpec("job", 8, Demo(file_size=48 << 20, nprocs_hint=8),
                     strategy=strategy)],
            cluster_spec=paper_spec(n_compute_nodes=4, n_data_servers=4),
            limit_s=1e4,
            fault_plan=plan,
        )

    vanilla = run("vanilla")
    dualpar = run("dualpar-forced")
    assert dualpar.makespan_s < vanilla.makespan_s


# ------------------------------------------------------------ chaos x guard


_FAILSLOW = FaultPlan(
    seed=3,
    events=(
        FaultEvent(kind="disk_failslow", at_s=0.0, until_s=1e6, target=1,
                   transfer_factor=6.0),
    ),
)


def test_guarded_adversary_under_failslow_stays_near_vanilla():
    """The headline degradation bound: a misprediction-heavy workload
    pinned to data-driven mode, on a cluster with a fail-slow disk, with
    the guard on, must (a) be degraded by the benefit governor and
    (b) finish within 10% of plain vanilla MPI-IO on the same cluster."""

    def run(strategy, guard=None):
        return run_experiment(
            [JobSpec("adversary", 8, DependentReads(file_size=64 << 20),
                     strategy=strategy)],
            cluster_spec=paper_spec(n_compute_nodes=4, n_data_servers=4),
            dualpar_config=DualParConfig(quota_bytes=64 * 1024),
            limit_s=1e4,
            fault_plan=_FAILSLOW,
            guard=guard,
        )

    vanilla = run("vanilla")
    guarded = run("dualpar-forced", guard=GuardConfig())
    unguarded = run("dualpar-forced")
    assert guarded.guard.state_of("adversary") == "degraded"
    assert guarded.makespan_s <= 1.10 * vanilla.makespan_s
    # ... while the same pinned job without the guard pays the full
    # Table-III misprediction tax.
    assert guarded.makespan_s < unguarded.makespan_s


def test_guard_preserves_dualpar_win_under_failslow():
    """The guard must not tax the nominal case: a well-predicted workload
    under the same fail-slow plan keeps its DualPar speedup with the
    governor watching."""

    def run(strategy, guard=None):
        return run_experiment(
            [JobSpec("job", 8, Demo(file_size=48 << 20, nprocs_hint=8),
                     strategy=strategy)],
            cluster_spec=paper_spec(n_compute_nodes=4, n_data_servers=4),
            limit_s=1e4,
            fault_plan=_FAILSLOW,
            guard=guard,
        )

    vanilla = run("vanilla")
    guarded = run("dualpar-forced", guard=GuardConfig())
    assert guarded.makespan_s < vanilla.makespan_s
    # The governor saw no reason to pull the job out of data-driven mode.
    assert guarded.guard.state_of("job") in ("probing", "datadriven")


def test_guarded_chaos_run_is_bit_identical():
    plan = SMOKE_PLANS["disk_failslow"]

    def run():
        res = run_experiment(
            [JobSpec("job", 8, MpiIoTest(file_size=32 << 20, op="R"),
                     strategy="dualpar-forced")],
            cluster_spec=paper_spec(n_compute_nodes=4, n_data_servers=4,
                                    trace_disks=True),
            limit_s=1e4,
            fault_plan=plan,
            guard=GuardConfig(),
        )
        return _fingerprint(res), list(res.guard.transitions)

    assert run() == run()


# ------------------------------------------------- runner / cache plumbing


def test_fault_plan_keys_the_bench_cache(tmp_path):
    base = ExperimentSpec(
        specs=(JobSpec("j", 4, MpiIoTest(file_size=4 << 20, op="R")),),
        cluster_spec=small_spec(),
    )
    import dataclasses

    faulted = dataclasses.replace(base, fault_plan=SMOKE_PLANS["net_degrade"])
    assert experiment_fingerprint(base) != experiment_fingerprint(faulted)
    # Different plans key differently too.
    other = dataclasses.replace(base, fault_plan=SMOKE_PLANS["server_crash"])
    assert experiment_fingerprint(faulted) != experiment_fingerprint(other)

    results = run_experiments([base, faulted], jobs=1, cache_dir=tmp_path)
    assert results[0].fault_log == []
    assert any(k == "net_degrade" for _, k, _, _ in results[1].fault_log)
    # Cached replay serves the same slim results.
    again = run_experiments([base, faulted], jobs=1, cache_dir=tmp_path)
    assert [asdict(j) for r in again for j in r.jobs] == [
        asdict(j) for r in results for j in r.jobs
    ]
    assert again[1].fault_log == results[1].fault_log


def test_cli_runs_with_fault_plan(tmp_path, capsys):
    from repro.cli import main

    plan_path = tmp_path / "plan.json"
    SMOKE_PLANS["disk_failslow"].dump(plan_path)
    rc = main(
        [
            "run",
            "--workload", "mpi-io-test",
            "--strategy", "vanilla",
            "--nprocs", "4",
            "--size-mb", "8",
            "--compute-nodes", "2",
            "--data-servers", "3",
            "--faults", str(plan_path),
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "faults injected" in out
    assert "disk_failslow" in out


# ----------------------------------------------------- Hypothesis properties


#: Bounded crash schedules: cumulative (gap, duration) pairs guarantee the
#: windows never overlap, so the injector's crash/recover pairs are valid.
_crash_schedules = st.lists(
    st.tuples(
        st.floats(min_value=0.001, max_value=0.2),
        st.floats(min_value=0.01, max_value=0.3),
        st.integers(min_value=0, max_value=2),
    ),
    min_size=1,
    max_size=3,
)


@given(schedule=_crash_schedules)
@settings(max_examples=12, deadline=None)
def test_writes_are_exactly_once_under_crash_schedules(schedule):
    """Arbitrary server crash/recover schedules neither lose nor duplicate
    a committed write: every request id the client issued is committed by
    exactly one server exactly once."""
    events = []
    t = 0.0
    for gap, dur, target in schedule:
        t += gap
        events.append(
            FaultEvent(kind="server_crash", at_s=t, until_s=t + dur, target=target)
        )
        t += dur
    plan = FaultPlan(
        seed=11,
        events=tuple(events),
        retry=RetryPolicy(
            base_timeout_s=0.05,
            timeout_per_byte_s=2e-6,
            max_retries=100,
            backoff_base_s=0.005,
            backoff_max_s=0.05,
        ),
    )
    cluster = build_cluster(small_spec())
    injector = FaultInjector(cluster, plan)
    injector.install()
    sim = cluster.sim
    f = cluster.fs.create("w.dat", 4 << 20)
    client = cluster.clients[0]

    def writer():
        for i in range(16):
            yield from client.io(f, i * 64 * 1024, 64 * 1024, "W", stream_id=1)

    proc = sim.process(writer())
    sim.run_until_event(proc, limit=1e4)
    assert client.bytes_written == 16 * 64 * 1024
    committed = [
        rid for ds in cluster.data_servers for rid in (ds.commit_log or [])
    ]
    assert len(committed) == len(set(committed)), "a write committed twice"
    issued = set(range(1, injector._req_counter + 1))
    assert set(committed) == issued, "a committed write went missing"


@given(
    base=st.floats(min_value=1e-4, max_value=1.0),
    factor=st.floats(min_value=1.0, max_value=4.0),
    cap=st.floats(min_value=1e-3, max_value=10.0),
    attempts=st.integers(min_value=1, max_value=30),
)
@settings(max_examples=200, deadline=None)
def test_backoff_is_monotone_and_capped(base, factor, cap, attempts):
    pol = RetryPolicy(backoff_base_s=base, backoff_factor=factor, backoff_max_s=cap)
    seq = [pol.backoff_s(a) for a in range(1, attempts + 1)]
    assert all(b >= a for a, b in zip(seq, seq[1:])), "backoff not monotone"
    assert all(s <= cap + 1e-12 for s in seq), "backoff exceeded its cap"
    assert seq[0] == pytest.approx(min(base, cap))
