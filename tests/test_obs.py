"""Tests for the observability layer: registry, tracing, export, wiring.

Covers the contract the subsystem advertises: get-or-create registry
semantics, span propagation across a full PFS read path, Chrome
trace_event schema validity, bit-identical determinism of observed runs,
the zero-overhead-when-disabled structure, and the CI kernel-bench
regression gate.
"""

import collections
import dataclasses
import json
import pathlib
import re
import subprocess
import sys

import pytest

from repro import JobSpec, MpiIoTest, run_experiment
from repro.cli import main
from repro.cluster import paper_spec
from repro.faults import FaultEvent, FaultPlan
from repro.obs import (
    MetricsRegistry,
    Observability,
    PeriodicSampler,
    Tracer,
    chrome_trace_events,
    darshan_summary,
    merge_metric_snapshots,
    write_chrome_trace,
    write_metrics,
)
from repro.sim.core import Simulator

REPO = pathlib.Path(__file__).resolve().parent.parent
GATE = REPO / "benchmarks" / "check_regression.py"
BASELINE = REPO / "benchmarks" / "results" / "BENCH_kernel.baseline.json"


def small_spec(strategy="vanilla"):
    return [JobSpec("j", 4, MpiIoTest(file_size=2 * 1024 * 1024), strategy=strategy)]


def small_cluster():
    return paper_spec(n_compute_nodes=4)


# ------------------------------------------------------------ registry


def test_registry_get_or_create_returns_same_instrument():
    reg = MetricsRegistry()
    c1 = reg.counter("disk.d0.seeks")
    c1.inc(3)
    c2 = reg.counter("disk.d0.seeks")
    assert c1 is c2
    assert c2.value == 3


def test_registry_kind_conflict_raises():
    reg = MetricsRegistry()
    reg.counter("x")
    with pytest.raises(ValueError, match="already registered as counter"):
        reg.histogram("x")


def test_registry_attach_conflict_raises():
    from repro.obs import EventLog

    reg = MetricsRegistry()
    log = EventLog("blktrace.s0", fields=("time", "lbn"))
    reg.attach("blktrace.s0", log)
    reg.attach("blktrace.s0", log)  # same object: idempotent
    with pytest.raises(ValueError):
        reg.attach("blktrace.s0", EventLog("blktrace.s0"))


def test_view_lands_in_its_kind_section():
    reg = MetricsRegistry()
    reg.view("c", "counter", lambda: 3)
    reg.view("g", "gauge", lambda: 0.5)
    reg.view("t", "timeseries", lambda: [[1.0, 2.0]])
    reg.view("e", "event_log", lambda: {"fields": ["a"], "n": 4})
    snap = reg.snapshot(now=0.0)
    assert snap["counters"] == {"c": 3}
    assert snap["gauges"] == {"g": 0.5}
    assert snap["timeseries"] == {"t": [[1.0, 2.0]]}
    assert snap["event_logs"] == {"e": {"fields": ["a"], "n": 4}}
    with pytest.raises(ValueError, match="unknown metric kind"):
        reg.view("x", "meter", lambda: 0)


def test_view_reads_at_snapshot_time_not_registration():
    reg = MetricsRegistry()
    state = {"n": 0}
    calls = []

    def read():
        calls.append(state["n"])
        return state["n"]

    reg.view("n", "counter", read)
    assert calls == []  # registration does not read
    state["n"] = 5
    assert reg.snapshot(now=1.0)["counters"]["n"] == 5
    state["n"] = 7
    assert reg.snapshot(now=2.0)["counters"]["n"] == 7
    assert calls == [5, 7]


def test_view_name_clash_raises():
    reg = MetricsRegistry()
    reg.counter("a")
    with pytest.raises(ValueError, match="already registered"):
        reg.view("a", "counter", lambda: 0)
    reg.view("b", "gauge", lambda: 0)
    with pytest.raises(ValueError, match="already registered"):
        reg.view("b", "gauge", lambda: 1)
    with pytest.raises(ValueError, match="already registered as gauge"):
        reg.counter("b")


def test_histogram_buckets_and_stats():
    reg = MetricsRegistry()
    h = reg.histogram("lat", bounds=[1.0, 10.0, 100.0])
    for v in [0.5, 5.0, 50.0, 500.0]:
        h.observe(v)
    assert h.counts == [1, 1, 1, 1]  # one per bucket incl. overflow
    assert h.n == 4
    assert h.min == 0.5 and h.max == 500.0
    assert h.mean == pytest.approx(555.5 / 4)


def test_histogram_rejects_bad_bounds():
    with pytest.raises(ValueError):
        MetricsRegistry().histogram("bad", bounds=[10.0, 1.0])


def test_snapshot_shape_and_json_round_trip():
    from repro.obs import EventLog

    reg = MetricsRegistry()
    reg.counter("c").inc()
    reg.view("g", "gauge", lambda: 7)
    reg.histogram("h", bounds=[1.0]).observe(2.0)
    reg.timeseries("t").record(1.0, 2.0)
    log = EventLog("e", fields=("a",))
    log.append((1,))
    reg.attach("e", log)
    snap = reg.snapshot(now=42.0)
    assert snap["sim_time_s"] == 42.0
    assert snap["counters"] == {"c": 1}
    assert snap["gauges"] == {"g": 7}
    assert snap["histograms"]["h"]["counts"] == [0, 1]
    assert snap["timeseries"]["t"] == [[1.0, 2.0]]
    # Event logs snapshot to a count, never a dump.
    assert snap["event_logs"]["e"] == {"fields": ["a"], "n": 1}
    assert json.loads(json.dumps(snap)) == snap


def test_units_served_counts_units_at_dispatch():
    """``blk.*.units_served`` counts a unit when it is dispatched, so a
    snapshot taken mid-service includes the unit on the platter."""
    from repro.disk import DiskDrive, DiskParams
    from repro.iosched import BlockLayer, NoopScheduler

    obs = Observability()
    sim = Simulator(observe=obs)
    layer = BlockLayer(sim, DiskDrive(sim, DiskParams(capacity_bytes=2 * 10**9)), NoopScheduler())
    layer.submit(1_000_000, 8)
    sim.run(until=1e-6)
    assert layer.stats.n_units_served == 0  # still in service
    assert obs.snapshot(sim.now)["counters"]["blk.blk0.units_served"] == 1
    sim.run()
    assert obs.snapshot(sim.now)["counters"]["blk.blk0.units_served"] == 1


def test_dualpar_job_counters_read_their_own_engine():
    """Each DualPar job publishes its own PEC/CRM counters under its name."""
    jobs = [
        JobSpec(name, 4, MpiIoTest(file_name=f"{name}.dat", file_size=2 * 1024 * 1024),
                strategy="dualpar-forced")
        for name in ("a", "b")
    ]
    res = run_experiment(jobs, cluster_spec=small_cluster(), observe=Observability())
    counters = res.metrics["counters"]
    for job in res.mpi_jobs:
        engine = job.engine
        assert counters[f"pec.{job.name}.cycles"] == engine.pec.n_cycles > 0
        assert counters[f"crm.{job.name}.prefetched_bytes"] == engine.crm.prefetched_bytes


# ------------------------------------------------------------- tracing


def test_span_records_sim_time_and_nests():
    sim = Simulator()
    tracer = Tracer()
    tracer.bind(sim)

    def body(sim):
        with tracer.span("outer", track="t"):
            yield sim.timeout(2.0)
            with tracer.span("inner", track="t"):
                yield sim.timeout(1.0)

    sim.process(body(sim))
    sim.run()
    outer, inner = tracer.spans
    assert (outer.t0, outer.t1) == (0.0, 3.0)
    assert (inner.t0, inner.t1) == (2.0, 3.0)
    # Sync spans nest: inner lies within outer on the same track.
    assert outer.t0 <= inner.t0 and inner.t1 <= outer.t1


def test_trace_context_stream_binding():
    tracer = Tracer()
    t1, t2 = tracer.new_trace(), tracer.new_trace()
    assert (t1, t2) == (1, 2)
    tracer.bind_stream(7, t2)
    assert tracer.trace_of_stream(7) == t2
    assert tracer.trace_of_stream(99) == 0  # unbound = untraced


def test_periodic_sampler_validates_interval():
    sim = Simulator()
    with pytest.raises(ValueError):
        PeriodicSampler(sim, 0.0, lambda now: None)


def test_periodic_sampler_fires_at_interval():
    sim = Simulator()
    ticks = []
    PeriodicSampler(sim, 1.0, ticks.append)
    sim.run(until=3.5)
    assert ticks == [1.0, 2.0, 3.0]


# ----------------------------------------- span propagation (pfs read)


def test_spans_propagate_across_pfs_read():
    obs = Observability()
    run_experiment(small_spec("vanilla"), cluster_spec=small_cluster(), observe=obs)
    by_name = {}
    for rec in obs.tracer.spans:
        by_name.setdefault(rec.name, []).append(rec)
    for name in ("mpi.io", "pfs.io", "pfs.server", "disk.service"):
        assert by_name.get(name), f"no {name} spans recorded"
    # Every layer of the first MPI-IO call shares its trace-context id.
    tid = by_name["mpi.io"][0].trace_id
    assert tid > 0
    for name in ("pfs.io", "pfs.server", "disk.service"):
        assert any(r.trace_id == tid for r in by_name[name]), (
            f"trace {tid} never reached {name}"
        )
    # Spans are closed and causally ordered within the trace.
    mpi = by_name["mpi.io"][0]
    assert mpi.t1 is not None and mpi.t1 > mpi.t0
    disk = [r for r in by_name["disk.service"] if r.trace_id == tid]
    assert all(r.t0 >= mpi.t0 and r.t1 <= mpi.t1 for r in disk)


def test_spans_propagate_across_list_io():
    """A collective read reaches the servers as list I/O: each
    ``pfs.server_list`` span carries the trace id of a rank's call."""
    from repro import IorMpiIo

    obs = Observability()
    run_experiment(
        [JobSpec("ior", 8, IorMpiIo(file_size=2 * 1024 * 1024, op="R"),
                 strategy="collective")],
        cluster_spec=paper_spec(n_compute_nodes=4),
        observe=obs,
    )
    rank_traces = {r.trace_id for r in obs.tracer.spans if r.name == "mpi.io"}
    lists = [r for r in obs.tracer.spans if r.name == "pfs.server_list"]
    assert lists
    assert all(r.trace_id > 0 and r.trace_id in rank_traces for r in lists)


# ------------------------------------------------------- chrome export


def test_chrome_trace_schema(tmp_path):
    obs = Observability()
    res = run_experiment(small_spec("vanilla"), cluster_spec=small_cluster(), observe=obs)
    events = chrome_trace_events(obs.tracer, registry_snapshot=res.metrics)
    assert events, "no trace events"
    phases = {e["ph"] for e in events}
    assert {"M", "X"} <= phases
    begins, ends = [], []
    for e in events:
        assert {"ph", "pid", "name"} <= e.keys()
        if e["ph"] == "X":
            assert e["ts"] >= 0 and e["dur"] >= 0
        elif e["ph"] == "b":
            begins.append(e["id"])
        elif e["ph"] == "e":
            ends.append(e["id"])
        elif e["ph"] in ("i", "C"):
            assert "ts" in e
    assert sorted(begins) == sorted(ends)  # async pairs balance
    meta = [e for e in events if e["ph"] == "M"]
    assert any(e["name"] == "process_name" for e in meta)
    assert any(e["name"] == "thread_name" for e in meta)
    out = write_chrome_trace(tmp_path / "trace.json", events)
    doc = json.loads(out.read_text())
    assert doc["traceEvents"] == events


def test_darshan_summary_lists_every_rank():
    obs = Observability()
    res = run_experiment(small_spec("vanilla"), cluster_spec=small_cluster(), observe=obs)
    table = darshan_summary(res)
    assert "io ratio" in table
    assert table.count("\n") >= 4  # header + one row per rank


def test_merge_metric_snapshots_sums_counters():
    a = {"counters": {"x": 1, "y": 2}}
    b = {"counters": {"x": 10}}
    merged = merge_metric_snapshots({"a": a, "b": b})
    assert merged["merged"]["counters"] == {"x": 11, "y": 2}
    assert merged["cells"]["a"] is a


# -------------------------------------------------------- determinism


def test_observed_run_is_bit_identical_to_plain():
    spec = small_spec("dualpar-forced")
    plain = run_experiment(spec, cluster_spec=small_cluster(), timeline_window_s=0.5)
    observed = run_experiment(
        small_spec("dualpar-forced"),
        cluster_spec=small_cluster(),
        timeline_window_s=0.5,
        observe=Observability(),
    )
    assert [dataclasses.asdict(j) for j in plain.jobs] == [
        dataclasses.asdict(j) for j in observed.jobs
    ]
    assert plain.makespan_s == observed.makespan_s
    assert plain.timeline.series() == observed.timeline.series()
    assert plain.metrics is None and observed.metrics is not None


def test_observed_metrics_cover_every_layer():
    obs = Observability()
    run_experiment(
        small_spec("dualpar-forced"),
        cluster_spec=paper_spec(n_compute_nodes=4, trace_disks=True),
        observe=obs,
    )
    names = obs.registry.names()
    for prefix in ("disk.", "blk.", "pfs.", "cache.", "emc.", "pec.", "crm.", "blktrace."):
        assert any(n.startswith(prefix) for n in names), f"no {prefix}* metrics"


# ------------------------------------------- zero-overhead when disabled


def test_plain_simulator_has_no_obs():
    assert Simulator().obs is None
    obs = Observability()
    assert Simulator(observe=obs).obs is obs


_OBS_MODULES = {"repro.obs", "repro.obs.registry", "repro.obs.tracing"}
_METRIC_BUNDLE = re.compile(r"_\w+Metrics")


def _is_obs(value):
    """An observability object: a registry, tracer or instrument, or a
    component's private ``_*Metrics`` instrument bundle."""
    if isinstance(value, list) and value:
        return all(_is_obs(v) for v in value)
    t = type(value)
    return t.__module__ in _OBS_MODULES or bool(_METRIC_BUNDLE.fullmatch(t.__name__))


def _obs_slots(root):
    """``(class, attribute) -> values`` for every attribute of a ``repro``
    object reachable from ``root`` that holds None or an observability
    object."""
    found = collections.defaultdict(list)
    seen = set()
    stack = [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, dict):
            stack.extend(obj.values())
            continue
        if isinstance(obj, (list, tuple, set, frozenset, collections.deque)):
            stack.extend(obj)
            continue
        t = type(obj)
        if not t.__module__.startswith("repro.") or _is_obs(obj):
            continue
        attrs = dict(getattr(obj, "__dict__", {}))
        for klass in t.__mro__:
            for slot in getattr(klass, "__slots__", ()):
                if hasattr(obj, slot):
                    attrs[slot] = getattr(obj, slot)
        for name, value in attrs.items():
            if value is None or _is_obs(value):
                found[(t.__qualname__, name)].append(value)
            else:
                stack.append(value)
    return found


def test_disabled_components_hold_none_not_instruments():
    """Every attribute that holds an instrument or tracer in an observed
    run holds None in a plain run of the same experiment, and the
    simulator's ``obs`` is None."""

    def run(observe):
        plan = FaultPlan(
            events=(FaultEvent(kind="disk_failslow", at_s=0.0, until_s=0.01, target=0),)
        )
        return run_experiment(
            small_spec("dualpar-forced"),
            cluster_spec=small_cluster(),
            observe=observe,
            fault_plan=plan,
            guard=True,
        )

    obs = Observability()
    observed_result = run(obs)
    observed = _obs_slots(observed_result)
    instrumented = sorted(k for k, vs in observed.items() if any(v is not None for v in vs))
    # The walk reaches every instrumented layer, so the check is not vacuous.
    assert {cls for cls, _ in instrumented} >= {
        "Simulator", "DiskDrive", "BlockLayer", "DataServer", "PfsClient",
        "DualParSystem", "Pec", "Crm", "FaultInjector", "SafetyGovernor",
        "CircuitBreaker", "StallWatchdog",
    }
    # Components whose every metric is a view of their own state hold
    # no instrument at all; their metrics are still in the snapshot.
    from repro.obs.registry import View

    snap = observed_result.metrics
    for name, section in (
        ("cache.gets", "counters"),                  # GlobalCache
        ("locality.loc0.seekdist", "timeseries"),    # LocalityDaemon
        ("emc.ticks", "counters"),                   # EmcDaemon
        ("faults.ds0.health", "gauges"),             # ServerHealth
        ("guard.budget.bytes", "gauges"),            # MemoryBudget
    ):
        assert isinstance(obs.registry.get(name), View), name
        assert name in snap[section], name
    plain_result = run(None)
    assert plain_result.runtime.sim.obs is None
    plain = _obs_slots(plain_result)
    for key in instrumented:
        assert plain.get(key), f"{key} not reached in the plain run"
        assert all(v is None for v in plain[key]), f"{key} holds an instrument"


# --------------------------------------------------------- CLI wiring


def test_cli_metrics_and_trace_out(tmp_path, capsys):
    metrics = tmp_path / "m.json"
    trace = tmp_path / "t.json"
    rc = main(
        [
            "run",
            "--workload", "mpi-io-test",
            "--nprocs", "4",
            "--size-mb", "4",
            "--strategy", "dualpar-forced",
            "--compute-nodes", "2",
            "--data-servers", "3",
            "--metrics", str(metrics),
            "--trace-out", str(trace),
        ]
    )
    assert rc == 0
    snap = json.loads(metrics.read_text())
    for prefix in ("disk.", "pfs.", "cache.", "emc.", "pec.", "crm."):
        assert any(n.startswith(prefix) for n in snap["counters"]), prefix
    doc = json.loads(trace.read_text())
    assert doc["traceEvents"]
    assert "per-rank I/O summary" in capsys.readouterr().out


def test_write_metrics_round_trips(tmp_path):
    snap = {"sim_time_s": 1.0, "counters": {"a": 2}}
    out = write_metrics(tmp_path / "m.json", snap)
    assert json.loads(out.read_text()) == snap


# ------------------------------------------------- CI regression gate


def run_gate(*argv):
    return subprocess.run(
        [sys.executable, str(GATE), *argv],
        capture_output=True,
        text=True,
        cwd=str(REPO),
    )


def test_committed_baseline_is_valid():
    data = json.loads(BASELINE.read_text())
    assert data["events_per_sec"] > 0
    assert 0 < data["tolerance"] < 1


def test_regression_gate_passes_and_fails(tmp_path):
    baseline = tmp_path / "baseline.json"
    baseline.write_text(json.dumps({"events_per_sec": 1_000_000, "tolerance": 0.25}))
    ok = run_gate("--baseline", str(baseline), "--measured", "900000")
    assert ok.returncode == 0, ok.stdout + ok.stderr
    assert "PASS" in ok.stdout
    # 700k is a >25% drop from 1M: the gate must fail the build.
    bad = run_gate("--baseline", str(baseline), "--measured", "700000")
    assert bad.returncode == 1
    assert "FAIL" in bad.stdout


def test_regression_gate_boundary_and_tolerance_override(tmp_path):
    baseline = tmp_path / "baseline.json"
    baseline.write_text(json.dumps({"events_per_sec": 1_000_000, "tolerance": 0.25}))
    # Exactly at the threshold passes (>= threshold).
    at = run_gate("--baseline", str(baseline), "--measured", "750000")
    assert at.returncode == 0
    # A tighter CLI tolerance overrides the baseline's.
    tight = run_gate(
        "--baseline", str(baseline), "--measured", "900000", "--tolerance", "0.05"
    )
    assert tight.returncode == 1


def test_regression_gate_checks_the_mixed_row(tmp_path):
    """A baseline with ``events_per_sec_mixed`` gates that row too: a
    figure that clears the bare-loop bar but not the mixed one fails."""
    baseline = tmp_path / "baseline.json"
    baseline.write_text(json.dumps(
        {"events_per_sec": 100_000, "events_per_sec_mixed": 1_000_000, "tolerance": 0.25}
    ))
    bad = run_gate("--baseline", str(baseline), "--measured", "500000")
    assert bad.returncode == 1
    assert bad.stdout.count("PASS") == 1 and bad.stdout.count("FAIL") == 1
    assert "events_per_sec_mixed:" in bad.stdout
    ok = run_gate("--baseline", str(baseline), "--measured", "800000")
    assert ok.returncode == 0, ok.stdout + ok.stderr
    assert ok.stdout.count("PASS") == 2
