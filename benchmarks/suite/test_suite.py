"""Harness tests for the benchmark suite (not part of tier-1).

Run explicitly::

    PYTHONPATH=src python -m pytest benchmarks/suite/test_suite.py -q
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
for _p in (str(HERE), str(HERE.parent), str(ROOT / "src")):
    if _p not in sys.path:
        sys.path.insert(0, _p)

import cells  # noqa: E402
import layers  # noqa: E402
import service_mix  # noqa: E402
from compare import classify  # noqa: E402
from layers import Tracer  # noqa: E402
from stats import END_TO_END, PER_LAYER, percentile, tail_percentile, valid_name  # noqa: E402


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


# -- span arithmetic -------------------------------------------------------


def test_nested_call_spans_split_self_time():
    clock = FakeClock()
    tr = Tracer(clock=clock)
    leaf = tr.call(lambda: clock.advance(2), "disk")

    def middle():
        clock.advance(1)
        leaf()
        leaf()
        clock.advance(3)

    mid = tr.call(middle, "iosched")
    top = tr.call(lambda: (clock.advance(0.5), mid()), "pfs")
    top()
    assert dict(tr.self_s) == {"pfs": 0.5, "iosched": 4.0, "disk": 4.0}
    assert dict(tr.calls) == {"pfs": 1, "iosched": 1, "disk": 2}
    assert sum(tr.self_s.values()) == clock.now


def test_generator_spans_time_each_resumption_throw_and_close():
    clock = FakeClock()
    tr = Tracer(clock=clock)
    child = tr.call(lambda: clock.advance(10), "disk")

    def body():
        clock.advance(1)
        try:
            x = yield "a"
            clock.advance(x)
            child()
            yield "b"
        except ValueError:
            clock.advance(5)
            yield "c"
        finally:
            clock.advance(0.25)

    gen = tr.generator(body, "net")()
    assert tr.calls["net"] == 1 and not tr.self_s  # creating runs nothing
    assert next(gen) == "a"
    clock.advance(100)  # suspended: charged to nobody
    assert gen.send(2) == "b"
    assert gen.throw(ValueError("boom")) == "c"
    gen.close()
    assert tr.self_s["net"] == 1 + 2 + 5 + 0.25
    assert tr.self_s["disk"] == 10
    assert tr._stack == []


def test_generator_span_closes_when_the_body_raises_and_returns_values():
    clock = FakeClock()
    tr = Tracer(clock=clock)

    def failing():
        clock.advance(1)
        yield 1
        clock.advance(2)
        raise KeyError("x")

    def returning():
        clock.advance(4)
        yield 1
        return "done"

    def outer():
        value = yield from tr.generator(returning, "net")()
        assert value == "done"
        clock.advance(8)

    gen = tr.generator(failing, "pfs")()
    next(gen)
    with pytest.raises(KeyError):
        next(gen)
    gen_outer = tr.generator(outer, "mpi")()
    next(gen_outer)
    with pytest.raises(StopIteration):
        next(gen_outer)
    assert dict(tr.self_s) == {"pfs": 3, "net": 4, "mpi": 8}
    assert tr._stack == []


def test_spawned_process_inherits_the_creating_layer():
    clock = FakeClock()
    tr = Tracer(clock=clock)
    spawned = []
    process = tr.process(lambda sim, gen, name, daemon: spawned.append(gen))

    def body():
        clock.advance(3)
        yield

    tr.call(lambda: process(None, body()), "iosched")()
    process(None, body())  # outside any span: left alone
    assert spawned[0].gi_code is layers._PROXY_CODE
    assert spawned[1].gi_code is body.__code__
    assert spawned[0].__name__ == "body"
    next(spawned[0])
    assert tr.self_s["iosched"] == 3


def test_traced_cell_is_bit_identical_and_patches_are_undone():
    from repro.sim.core import Simulator

    process = Simulator.__dict__["process"]
    cell = cells.workload_cells("collective-cells", 0, smoke=True)[2]
    spec = cell.spec

    def run():
        import repro

        return repro.run_experiment(list(spec.specs), cluster_spec=spec.cluster_spec)

    plain = cells.cell_digest(run())
    tr = Tracer()
    t0 = time.perf_counter()
    with tr:
        traced = cells.cell_digest(run())
    wall = time.perf_counter() - t0
    assert traced == plain
    assert Simulator.__dict__["process"] is process
    assert tr.self_s["mpiio"] > 0 and tr.calls["sim"] >= 1
    assert 0 < sum(tr.self_s.values()) <= wall


# -- seeds -----------------------------------------------------------------


def _fingerprints(workload: str, seed: int) -> list[str]:
    from repro.runner.parallel import experiment_fingerprint

    return [experiment_fingerprint(c.spec) for c in cells.workload_cells(workload, seed)]


@pytest.mark.parametrize("workload", sorted(cells.CELL_WORKLOADS))
def test_same_seed_same_cells_other_seed_other_order(workload):
    assert _fingerprints(workload, 7) == _fingerprints(workload, 7)
    assert any(_fingerprints(workload, s) != _fingerprints(workload, 0) for s in (1, 2, 3))
    # Only the order changes: every seed runs the same cells.
    assert sorted(_fingerprints(workload, 7)) == sorted(_fingerprints(workload, 0))


def test_same_seed_same_service_trace():
    assert service_mix.make_trace(5) == service_mix.make_trace(5)
    assert service_mix.make_trace(5) != service_mix.make_trace(6)
    trace = service_mix.make_trace(5)
    unique = [c for k, c in trace if k == "unique"]
    assert len(trace) == 2 * len(unique)
    # Every seed runs the same unique cells, so the simulation work is fixed.
    assert sorted(unique) == sorted(service_mix.unique_cells())
    seen = set()
    for kind, cell in trace:
        assert kind == "unique" or cell in seen
        seen.add(cell)


def test_seed_zero_is_the_paper_cells():
    import bench_fig3_single_app as fig3
    import bench_fig4_btio as fig4
    import bench_fig7_adaptive as fig7
    import bench_fig8_cache_size as fig8
    from repro.cluster import paper_spec

    by_key = {c.key: c for w in cells.CELL_WORKLOADS for c in cells.workload_cells(w, 0)}
    for op in "RW":
        for name, build in fig3.workloads(op):
            for scheme in fig3.SCHEMES:
                cell = by_key.get(f"fig3/{name}/{op}/{scheme}")
                if cell is None:
                    continue
                (job,) = cell.spec.specs
                ours, paper = vars(job.workload), vars(build())
                if name == "noncontig":  # a size cut, see cells.py
                    assert (ours["n_rows"], paper["n_rows"]) == (1024, 4096)
                    ours, paper = {**ours, "n_rows": 0}, {**paper, "n_rows": 0}
                assert ours == paper
                assert job.nprocs == fig3.NPROCS and job.strategy == scheme
                assert cell.spec.cluster_spec == paper_spec()
    for scheme in fig4.SCHEMES:
        ours = by_key[f"fig4/btio/W/{scheme}"].spec.specs
        paper = fig4.make_specs(64, scheme)
        for a, b in zip(ours, paper, strict=True):
            assert a.workload.total_bytes * 4 == b.workload.total_bytes
            assert {**vars(a.workload), "total_bytes": 0} == {**vars(b.workload), "total_bytes": 0}
            assert (a.name, a.nprocs, a.strategy) == (b.name, b.nprocs, b.strategy)
    adaptive = by_key["fig7/adaptive/R/dualpar"].spec
    assert [j.nprocs for j in adaptive.specs] == [fig7.NPROCS] * 2
    assert adaptive.specs[1].delay_s == fig7.JOIN_AT_S
    assert adaptive.timeline_window_s == fig7.WINDOW_S
    quota = by_key["fig8/btio-64KB/W/dualpar-forced"].spec
    assert vars(quota.specs[0].workload) == vars(fig8.make_workload())
    assert quota.dualpar_config.quota_bytes == 64 * 1024 and 64 in fig8.QUOTAS_KB


# -- calibration -----------------------------------------------------------


def test_speed_probe_reports_busy_time_at_reference_speed(monkeypatch):
    import signal

    import calibrate

    monkeypatch.setattr(calibrate, "slice_seconds", lambda: 2 * calibrate.SLICE_S)
    handler = signal.getsignal(signal.SIGALRM)
    with calibrate.SpeedProbe(interval_s=0.01) as probe:
        t_end = time.perf_counter() + 0.1
        while time.perf_counter() < t_end:  # busy: the timer fires in here
            pass
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(probe.slices) > 2 * calibrate.EDGE_SLICES  # some ran inside
    assert probe.speed == pytest.approx(0.5)
    assert probe.busy_s < probe.wall_s
    assert probe.scaled_s == pytest.approx(0.5 * probe.busy_s)


def test_speed_is_the_mean_of_slice_speeds():
    import calibrate

    s = calibrate.SLICE_S
    assert calibrate.speed_of([s, s, s]) == pytest.approx(1.0)
    # Half the time at full speed, half at half speed: 0.75 on average.
    assert calibrate.speed_of([s, 2 * s]) == pytest.approx(0.75)


def test_service_runs_are_scaled_by_their_own_workers_slices():
    from calibrate import SLICE_S

    offset = time.time() - time.perf_counter()
    # A slice every 10 ms, off the window edges; worker 0 at half speed.
    slow = [((k + 0.5) / 100, 2 * SLICE_S) for k in range(1000)]
    fast = [((k + 0.5) / 100, SLICE_S) for k in range(1000)]
    runs = [
        service_mix.Sample("unique", "R", 1.0, "queued", run_s=2.0, worker_id=0,
                           committed_unix=offset + 4.0),
        service_mix.Sample("unique", "W", 1.0, "queued", run_s=1.0, worker_id=1,
                           committed_unix=offset + 8.0),
        service_mix.Sample("repeat", "W", 0.01, "cached"),
    ]
    service_mix._scale_runs(runs, {0: slow, 1: fast})
    inside_slow = sum(c for t, c in slow if 2.0 <= t <= 4.0)
    inside_fast = sum(c for t, c in fast if 7.0 <= t <= 8.0)
    assert runs[0].scaled_s == pytest.approx((2.0 - inside_slow) * 0.5, rel=1e-3)
    assert runs[1].scaled_s == pytest.approx(1.0 - inside_fast, rel=1e-3)
    assert runs[2].scaled_s is None


# -- statistics and names --------------------------------------------------


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert tail_percentile(200) == 95.0
    assert tail_percentile(199) == 90.0
    assert tail_percentile(1000) == 99.0
    assert tail_percentile(10_000) == 99.9
    assert tail_percentile(20) == 50.0
    assert tail_percentile(19) is None
    values = list(range(1, 201))
    assert percentile(values, 95.0) == 190
    assert sum(v > percentile(values, 95.0) for v in values) == 10


def test_metric_names_are_validated():
    for good in ("wall_s", "pfs.self_s", "service.job_p50_s", "a-b.c_d", "9x"):
        assert valid_name(good)
    for bad in ("", ".x", "wall s", "a/b", "x" * 65, "naïve", "p95%"):
        assert not valid_name(bad)
    names = [m.name for m in (*END_TO_END, *PER_LAYER)]
    assert all(valid_name(n) for n in names)
    assert len(names) == len(set(names))


def test_benchmark_json_mirrors_the_catalogue():
    path = ROOT / "BENCHMARK.json"
    if not path.exists():
        pytest.skip("no BENCHMARK.json in this tree")
    bench = json.loads(path.read_text())
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in bench["end_to_end"]] == [
        (m.name, m.unit, m.better, m.bound) for m in END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == [
        (m.name, m.unit, m.better) for m in PER_LAYER
    ]
    assert [w["name"] for w in bench["workloads"]] == [
        *cells.CELL_WORKLOADS, "service-mix"
    ]


def test_compare_verdicts():
    parent = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.0, 10.1, 9.9]
    faster = [v * 0.8 for v in parent]
    assert classify(parent, faster, "lower", 0.1) == "improved"
    assert classify(parent, [v * 1.2 for v in parent], "lower", 0.1) == "worse"
    assert classify(parent, list(parent), "lower", 0.1) == "unchanged"
    noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
    assert classify(noisy, [v * 1.02 for v in noisy], "lower", 0.1) == "unresolved"
    assert classify(parent, faster, "higher", None) == "worse"


# -- end to end ------------------------------------------------------------


def test_smoke_profile_runs_every_workload_quickly():
    out = ROOT / "benchmarks" / "out" / "BENCH_suite.smoke.json"
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--seconds", "0", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    elapsed = time.perf_counter() - t0
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], proc.stdout
    workloads = [*cells.CELL_WORKLOADS, "service-mix"]
    assert set(result["metrics"]) == {f"{w}.{m.name}" for w in workloads for m in END_TO_END}
    assert all(v["value"] > 0 for v in result["metrics"].values())
    # The C-pump defect (README, "Known defects", 1) may fail a cell at
    # random; a hung drain (2) is not an operation but costs its timeout.
    reports = json.loads(out.read_text())["workloads"].values()
    failures = [f for rep in reports for f in rep["failures"]]
    assert len(failures) == result["failed"] <= 1, failures
    hung = any(rep.get("drain_error") for rep in reports)
    assert elapsed < 20 + service_mix.DRAIN_TIMEOUT_S * hung
