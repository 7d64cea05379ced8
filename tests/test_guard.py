"""Safety-governor suite: budgets, breaker, watchdog, governor, wiring.

The contract under test (docs/degradation.md):

- `MemoryBudget` enforces per-job/per-node caps: speculative charges are
  refused at the cap, dirty charges never are, releases balance;
- `CircuitBreaker` trips on consecutive slow batches, bypasses while
  open, and recovers through a single half-open probe;
- `StallWatchdog` reports a synthetic circular-resource-wait deadlock
  within one evaluation window, naming the blocked processes and the
  resources they hold -- and never fires on healthy time-driven runs;
- `JobGovernor` walks `normal -> probing -> datadriven -> degraded`
  with escalating cooldowns and overrules `force_mode`;
- a prefetch storm against tiny caps keeps peak accounted bytes at or
  under the cap and surfaces shed/backpressure counters in `guard.*`;
- guard-off runs are bit-identical (all hooks default to None), a
  disabled `GuardConfig` fingerprints like no guard at all, and the
  `guard` field keys the bench cache.
"""

from dataclasses import asdict, replace

import pytest

from repro.cluster import paper_spec
from repro.core.config import DualParConfig
from repro.guard import (
    CircuitBreaker,
    GuardConfig,
    MemoryBudget,
    SafetyGovernor,
    StallWatchdog,
)
from repro.obs import Observability
from repro.runner import ExperimentSpec, JobSpec, run_experiment
from repro.runner.parallel import experiment_fingerprint
from repro.sim import Resource, Simulator
from repro.workloads import DependentReads, MpiIoTest


# ----------------------------------------------------------- MemoryBudget


class TestMemoryBudget:
    def _budget(self, job_cap=1000, node_cap=800):
        cfg = GuardConfig(job_cap_bytes=job_cap, node_cap_bytes=node_cap)
        return MemoryBudget(cfg)

    def test_charge_release_balance(self):
        b = self._budget()
        b.charge(300, job_id=1, node=0)
        b.charge(200, job_id=1, node=1)
        assert b.job_used(1) == 500
        assert b.node_used(0) == 300
        assert b.total_bytes == 500
        b.release(300, job_id=1, node=0)
        assert b.job_used(1) == 200
        assert b.node_used(0) == 0
        assert b.peak_bytes == 500
        assert b.job_peak(1) == 500

    def test_try_charge_refuses_at_job_cap(self):
        b = self._budget(job_cap=1000)
        assert b.try_charge(900, job_id=1)
        assert not b.try_charge(200, job_id=1)
        assert b.job_used(1) == 900  # refused charge not applied
        assert b.n_shed_store == 1

    def test_try_charge_refuses_at_node_cap(self):
        b = self._budget(node_cap=800)
        assert b.try_charge(700, job_id=1, node=3)
        assert not b.try_charge(200, job_id=2, node=3)
        assert b.node_used(3) == 700
        assert b.n_shed_store == 1

    def test_dirty_charge_is_never_refused(self):
        b = self._budget(job_cap=100, node_cap=100)
        b.charge(500, job_id=1, node=0)  # committed writes must land
        assert b.job_used(1) == 500
        assert b.node_over(0)
        assert b.job_headroom(1) == 0

    def test_transfer_node_moves_accounting(self):
        b = self._budget()
        b.charge(400, job_id=1, node=0)
        b.transfer_node(400, 0, 2)
        assert b.node_used(0) == 0
        assert b.node_used(2) == 400
        assert b.total_bytes == 400  # job/total unchanged

    def test_summary_counters(self):
        b = self._budget()
        b.record_shed_plan(3)
        b.record_blocked()
        b.record_paced(2)
        s = b.summary()
        assert s["n_shed_plan"] == 3
        assert s["n_blocked"] == 1
        assert s["n_paced"] == 2


# --------------------------------------------------------- CircuitBreaker


class TestCircuitBreaker:
    def _breaker(self, sim, **kw):
        cfg = GuardConfig(
            breaker_failures=3, breaker_latency_s=0.5, breaker_reset_s=2.0, **kw
        )
        return CircuitBreaker(sim, cfg)

    def test_trips_after_consecutive_slow_batches(self):
        sim = Simulator()
        b = self._breaker(sim)
        b.record(1.0)
        b.record(1.0)
        assert b.state == "closed"  # two of three
        b.record(0.1)  # fast batch resets the streak
        b.record(1.0)
        b.record(1.0)
        b.record(1.0)
        assert b.state == "open"
        assert b.n_trips == 1
        assert not b.allow()

    def test_half_open_probe_closes_on_fast(self):
        sim = Simulator()
        b = self._breaker(sim)
        for _ in range(3):
            b.record(1.0)
        assert not b.allow()

        def later():
            yield sim.timeout(2.5)
            assert b.allow()  # first probe admitted
            assert not b.allow()  # only one in flight
            b.record(0.1)
            assert b.state == "closed"
            assert b.allow()

        sim.process(later(), name="probe")
        sim.run()

    def test_half_open_probe_reopens_on_slow(self):
        sim = Simulator()
        b = self._breaker(sim)
        for _ in range(3):
            b.record(1.0)

        def later():
            yield sim.timeout(2.5)
            assert b.allow()
            b.record(9.0)
            assert b.state == "open"
            assert b.n_trips == 2
            assert not b.allow()

        sim.process(later(), name="probe")
        sim.run()

    def test_external_failure_counts(self):
        sim = Simulator()
        b = self._breaker(sim)
        for _ in range(3):
            b.record_failure()
        assert b.state == "open"


# ---------------------------------------------------------- StallWatchdog


class TestStallWatchdog:
    def test_detects_circular_resource_deadlock(self):
        sim = Simulator()
        wd = StallWatchdog(sim, interval_s=1.0, stall_window_s=2.0)
        r1, r2 = Resource(sim), Resource(sim)

        def grab(first, second):
            yield first.request()
            yield sim.timeout(0.1)
            yield second.request()

        sim.process(grab(r1, r2), name="p-a")
        sim.process(grab(r2, r1), name="p-b")
        sim.run(until=10.0)

        assert wd.deadlocks, "circular wait must report as deadlock"
        report = wd.deadlocks[0]
        # Stall starts at ~0.1s; window 2s; ticks every 1s -- the report
        # must land within one evaluation window of the threshold.
        assert report.time <= 0.1 + wd.stall_window_s + wd.interval_s
        names = {b.name for b in report.blocked}
        assert names == {"p-a", "p-b"}
        table = report.render()
        assert "deadlock" in table
        assert "p-a" in table and "p-b" in table
        assert "Resource#" in table  # names both the wait and the holds
        held = {h for b in report.blocked for h in b.held}
        assert len(held) == 2  # each proc holds the resource the other wants

    def test_no_false_positive_on_time_driven_run(self):
        sim = Simulator()
        wd = StallWatchdog(sim, interval_s=1.0, stall_window_s=2.0)

        def ticker():
            for _ in range(8):
                yield sim.timeout(1.0)

        sim.process(ticker(), name="ticker")
        sim.run(until=10.0)
        assert wd.reports == []

    def test_partial_stall_reports_stall_not_deadlock(self):
        sim = Simulator()
        wd = StallWatchdog(sim, interval_s=1.0, stall_window_s=2.0)
        never = sim.event()

        def stuck():
            yield never

        def ticker():
            for _ in range(8):
                yield sim.timeout(1.0)

        sim.process(stuck(), name="stuck")
        sim.process(ticker(), name="ticker")
        sim.run(until=7.5)
        kinds = {r.kind for r in wd.reports}
        assert kinds == {"stall"}
        assert wd.deadlocks == []

    def test_report_dedup_across_ticks(self):
        sim = Simulator()
        wd = StallWatchdog(sim, interval_s=1.0, stall_window_s=2.0)
        never = sim.event()

        def stuck():
            yield never

        def ticker():
            for _ in range(20):
                yield sim.timeout(1.0)

        sim.process(stuck(), name="stuck")
        sim.process(ticker(), name="ticker")
        sim.run(until=20.5)
        assert len(wd.reports) == 1  # same signature never re-reports

    def test_second_watchdog_rejected(self):
        sim = Simulator()
        StallWatchdog(sim)
        with pytest.raises(ValueError):
            StallWatchdog(sim)


# ------------------------------------------------------------ JobGovernor


class _StubJob:
    def __init__(self):
        self.name = "stub"
        self.job_id = 1
        self.mode = "normal"
        self.procs = []


class _StubEngine:
    def __init__(self, config=None):
        self.job = _StubJob()
        self.config = config or DualParConfig()
        self.n_cache_hits = 0
        self.n_cache_misses = 0
        self.mode_calls = []

    def set_mode(self, mode):
        self.job.mode = mode
        self.mode_calls.append(mode)


def _at(sim, t, fn):
    def g():
        yield sim.timeout(t)
        fn()

    sim.process(g(), name=f"at-{t}")


class TestJobGovernor:
    def _governor(self, sim, dualpar_config=None, guard_config=None):
        guard = SafetyGovernor(sim, guard_config or GuardConfig(watchdog=False))
        engine = _StubEngine(dualpar_config)
        return guard, engine, guard.governor_for(engine)

    def test_enter_on_thresholds_then_promote(self):
        sim = Simulator()
        guard, engine, gov = self._governor(sim)
        assert gov.state == "normal"
        gov.evaluate(0.5, 1.0)  # below both enter thresholds
        assert gov.state == "normal"
        gov.evaluate(0.9, 5.0)
        assert gov.state == "probing"
        assert engine.job.mode == "datadriven"
        _at(sim, 1.5, lambda: gov.evaluate(0.9, 5.0))
        sim.run()
        assert gov.state == "datadriven"

    def test_forced_job_starts_probing_and_can_degrade(self):
        sim = Simulator()
        cfg = DualParConfig(force_mode="datadriven")
        guard, engine, _ = self._governor(sim, cfg)
        engine.job.mode = "datadriven"  # what dualpar-forced does at launch
        gov = guard.governor_for(_StubEngine(cfg))  # fresh governor sees it
        engine2 = gov.engine
        engine2.job.mode = "normal"
        # Construct against a forced engine already in datadriven mode:
        forced = _StubEngine(cfg)
        forced.job.job_id = 2
        forced.job.mode = "datadriven"
        gov2 = guard.governor_for(forced)
        assert gov2.state == "probing"
        gov2.report_misprefetch(0.9)  # way over MISPREFETCH_THRESHOLD
        assert gov2.state == "degraded"
        assert forced.job.mode == "normal"  # guard outranks the pin

    def test_low_hit_rate_degrades(self):
        sim = Simulator()
        guard, engine, gov = self._governor(sim)
        gov.evaluate(0.9, 5.0)
        assert gov.state == "probing"
        engine.n_cache_misses += 20  # all misses -> hit rate EWMA 0.0
        gov.evaluate(0.9, 5.0)
        assert gov.state == "degraded"
        assert guard.n_degrades == 1

    def test_cooldown_escalates_and_expires(self):
        sim = Simulator()
        gcfg = GuardConfig(watchdog=False, cooldown_s=2.0, cooldown_factor=2.0)
        guard, engine, gov = self._governor(
            sim, DualParConfig(force_mode="datadriven"), gcfg
        )
        timeline = []

        def step(t):
            gov.evaluate(0.9, 5.0)
            timeline.append((t, gov.state))

        gov.degrade("test")
        assert gov.cooldown_until == pytest.approx(2.0)
        _at(sim, 1.0, lambda: step(1.0))  # still cooling
        _at(sim, 2.5, lambda: step(2.5))  # cooldown over -> normal
        _at(sim, 3.0, lambda: step(3.0))  # forced -> probing again
        _at(sim, 3.5, lambda: gov.degrade("test2"))
        sim.run()
        assert timeline[0] == (1.0, "degraded")
        assert timeline[1] == (2.5, "normal")
        assert timeline[2] == (3.0, "probing")
        # Second degrade doubles the cooldown: 2.0 * 2**1 from t=3.5.
        assert gov.cooldown_until == pytest.approx(3.5 + 4.0)
        states = [s for _, _, s, _ in guard.transitions]
        assert states.count("degraded") == 2

    def test_io_ratio_exit_for_unforced_jobs(self):
        sim = Simulator()
        guard, engine, gov = self._governor(sim)
        gov.evaluate(0.9, 5.0)
        _at(sim, 1.5, lambda: gov.evaluate(0.9, 5.0))  # promote
        _at(sim, 2.0, lambda: gov.evaluate(0.1, 5.0))  # below io_ratio_exit
        sim.run()
        assert gov.state == "normal"
        assert engine.job.mode == "normal"


# -------------------------------------------------- end-to-end enforcement


def _small_spec():
    return paper_spec(n_compute_nodes=4, n_data_servers=4)


def test_prefetch_storm_respects_caps_and_sheds():
    cap = 512 * 1024  # far below what a 32 MB read-ahead would want
    guard_cfg = GuardConfig(
        job_cap_bytes=cap, node_cap_bytes=cap, watchdog=False
    )
    observe = Observability()
    res = run_experiment(
        [
            JobSpec(
                "storm",
                8,
                MpiIoTest(file_size=32 << 20, op="R"),
                strategy="dualpar-forced",
            )
        ],
        cluster_spec=_small_spec(),
        dualpar_config=DualParConfig(quota_bytes=4 * 1024 * 1024),
        observe=observe,
        guard=guard_cfg,
    )
    budget = res.guard.budget
    job_id = res.mpi_jobs[0].job_id
    assert budget.job_peak(job_id) <= cap
    summary = budget.summary()
    sheds = (
        summary["n_shed_store"] + summary["n_shed_plan"] + summary["n_blocked"]
    )
    assert sheds > 0, "a storm against tiny caps must trigger backpressure"
    counters = res.metrics["counters"]
    assert "guard.budget.shed_plan" in counters or "guard.budget.shed_store" in counters
    assert res.metrics["gauges"]["guard.budget.peak_bytes"] <= cap


def test_guard_off_is_deterministic_and_unaffected():
    def cell(guard):
        res = run_experiment(
            [JobSpec("j", 4, MpiIoTest(file_size=8 << 20), strategy="dualpar")],
            cluster_spec=_small_spec(),
            guard=guard,
        )
        return [asdict(j) for j in res.jobs], res.makespan_s

    base = cell(None)
    assert cell(None) == base  # bit-identical repeats
    assert cell(GuardConfig(enabled=False)) == base  # disabled == absent


def test_guarded_run_attaches_everywhere():
    res = run_experiment(
        [JobSpec("j", 4, MpiIoTest(file_size=8 << 20), strategy="dualpar-forced")],
        cluster_spec=_small_spec(),
        guard=GuardConfig(),
    )
    guard = res.guard
    assert guard is not None
    assert res.dualpar.guard is guard
    assert res.runtime.global_cache.budget is guard.budget
    for server in res.cluster.data_servers:
        if server.writeback is not None:
            assert server.writeback.budget is guard.budget
    assert res.runtime.sim.watchdog is guard.watchdog
    assert guard.watchdog.n_ticks > 0 or res.makespan_s < guard.config.watchdog_interval_s
    assert guard.summary()["breaker"]["state"] == "closed"


def test_misprediction_forced_job_degrades():
    res = run_experiment(
        [
            JobSpec(
                "adversary",
                4,
                DependentReads(file_size=16 << 20),
                strategy="dualpar-forced",
            )
        ],
        cluster_spec=_small_spec(),
        dualpar_config=DualParConfig(quota_bytes=64 * 1024),
        guard=GuardConfig(watchdog=False),
    )
    assert res.guard.state_of("adversary") == "degraded"
    reasons = [r for _, _, s, r in res.guard.transitions if s == "degraded"]
    assert reasons, "expected a logged degrade transition"


# ------------------------------------------------------------ bench cache


def _spec(guard):
    return ExperimentSpec(
        specs=(JobSpec("j", 4, MpiIoTest(file_size=8 << 20), strategy="dualpar"),),
        cluster_spec=_small_spec(),
        guard=guard,
    )


def test_guard_keys_the_bench_cache():
    none_fp = experiment_fingerprint(_spec(None))
    on_fp = experiment_fingerprint(_spec(GuardConfig()))
    tweaked_fp = experiment_fingerprint(
        _spec(replace(GuardConfig(), job_cap_bytes=1024))
    )
    assert none_fp != on_fp
    assert on_fp != tweaked_fp


def test_disabled_guard_fingerprints_like_no_guard():
    assert experiment_fingerprint(
        _spec(GuardConfig(enabled=False))
    ) == experiment_fingerprint(_spec(None))
