"""Event lifetime and the cyclic garbage collector.

A run's per-message and per-process objects -- resource grants,
finished processes, fired conditions -- must die by refcount, on both
kernels: none may be left for the cyclic collector.  And
:func:`repro.run_experiment` holds the collector's young generation at
one threshold while it runs, restoring the caller's thresholds however
it leaves.
"""

from __future__ import annotations

import gc
import importlib.util
import sys
import threading
from pathlib import Path

import pytest

from repro import JobSpec, run_experiment
from repro.cluster import builder, paper_spec
from repro.runner import experiment
from repro.sim import HeapQueue, Resource, Simulator, any_of
from repro.sim import core as sim_core
from repro.workloads import MpiIoTest

ROOT = Path(__file__).resolve().parent.parent


def _load_gc_audit():
    path = ROOT / "benchmarks" / "gc_audit.py"
    spec = importlib.util.spec_from_file_location("_gc_audit", path)
    assert spec is not None and spec.loader is not None
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod
    spec.loader.exec_module(mod)
    return mod


gc_audit = _load_gc_audit()


def _use_kernel(monkeypatch, kernel: str) -> None:
    if kernel == "python":
        monkeypatch.setattr(
            builder, "Simulator", lambda *a, **kw: Simulator(*a, queue=HeapQueue(), **kw)
        )
    elif sim_core._CQ is None:
        pytest.skip("no C accelerator")


@pytest.fixture
def thresholds():
    """The collector thresholds the test found, restored after it."""
    saved = gc.get_threshold()
    yield saved
    gc.set_threshold(*saved)


def _small_cell(strategy: str) -> list[JobSpec]:
    workload = MpiIoTest(file_size=2 * 2**20, request_bytes=64 * 1024, op="R")
    return [JobSpec("mpi-io-test", 8, workload, strategy=strategy)]


# -- no cycles on the message path -------------------------------------


@pytest.mark.parametrize("kernel", ["python", "c"])
@pytest.mark.parametrize("strategy", ["vanilla", "dualpar-forced"])
def test_a_run_leaves_no_cyclic_garbage(monkeypatch, kernel, strategy):
    _use_kernel(monkeypatch, kernel)
    spec = paper_spec(n_compute_nodes=4)
    garbage = gc_audit.cyclic_garbage(
        lambda: run_experiment(_small_cell(strategy), cluster_spec=spec)
    )
    assert garbage["_Request"] == 0
    assert garbage["Process"] == 0
    assert sum(garbage.values()) <= gc_audit.CYCLIC_BOUND, garbage.most_common(5)


@pytest.mark.parametrize("kernel", ["python", "c"])
def test_release_drops_the_grant_and_a_finished_process_its_callback(kernel):
    if kernel == "c" and sim_core._CQ is None:
        pytest.skip("no C accelerator")
    sim = Simulator(queue=HeapQueue()) if kernel == "python" else Simulator()
    res = Resource(sim)
    held = []

    def user(tag):
        req = res.request()
        yield req
        held.append((tag, req.value is req))
        yield sim.timeout(1.0)
        res.release(req)
        held.append((tag, req.value))

    def failing():
        yield sim.timeout(0.5)
        raise RuntimeError("boom")

    procs = [sim.process(user("a")), sim.process(user("b"))]
    bad = sim.process(failing())
    bad.callbacks.append(lambda ev: setattr(ev, "_defused", True))
    sim.run()
    assert held == [("a", True), ("a", None), ("b", True), ("b", None)]
    assert all(p._resume_cb is None for p in [*procs, bad])


def test_a_fired_condition_unhooks_from_its_pending_events():
    sim = Simulator(queue=HeapQueue())
    never = sim.event()
    cond = any_of(sim, [never, sim.timeout(1.0)])
    assert len(never.callbacks) == 1
    sim.run()
    assert cond.processed and never.callbacks == []
    # Built on an event already processed, it fires at once and hooks
    # onto nothing.
    late = sim.event()
    assert any_of(sim, [cond, late]).triggered and late.callbacks == []


# -- one young-generation policy per run -------------------------------


def _tiny_cell() -> list[JobSpec]:
    return [JobSpec("t", 2, MpiIoTest(file_size=2**20, request_bytes=2**18, op="R"))]


def _tiny_spec():
    return paper_spec(n_compute_nodes=2, n_data_servers=2)


def test_run_holds_the_threshold_and_restores_the_callers(monkeypatch, thresholds):
    gc.set_threshold(1234, 11, 12)
    seen = []
    build = experiment.build_cluster

    def recording(*a, **kw):
        seen.append(gc.get_threshold())
        return build(*a, **kw)

    monkeypatch.setattr(experiment, "build_cluster", recording)
    run_experiment(_tiny_cell(), cluster_spec=_tiny_spec())
    assert seen == [(experiment.GC_GEN0_THRESHOLD, 11, 12)]
    assert gc.get_threshold() == (1234, 11, 12)


def test_a_run_that_raises_restores_the_callers_threshold(monkeypatch, thresholds):
    gc.set_threshold(1234, 11, 12)
    seen = []

    def broken(*a, **kw):
        seen.append(gc.get_threshold())
        raise RuntimeError("cluster build failed")

    monkeypatch.setattr(experiment, "build_cluster", broken)
    with pytest.raises(RuntimeError, match="cluster build failed"):
        run_experiment(_tiny_cell(), cluster_spec=_tiny_spec())
    assert seen == [(experiment.GC_GEN0_THRESHOLD, 11, 12)]
    assert gc.get_threshold() == (1234, 11, 12)


def test_a_nested_run_keeps_the_outer_runs_threshold(monkeypatch, thresholds):
    gc.set_threshold(1234, 11, 12)
    build = experiment.build_cluster
    after_inner = []

    def nesting(*a, **kw):
        monkeypatch.setattr(experiment, "build_cluster", build)
        run_experiment(_tiny_cell(), cluster_spec=_tiny_spec())
        after_inner.append(gc.get_threshold())
        return build(*a, **kw)

    monkeypatch.setattr(experiment, "build_cluster", nesting)
    run_experiment(_tiny_cell(), cluster_spec=_tiny_spec())
    assert after_inner == [(experiment.GC_GEN0_THRESHOLD, 11, 12)]
    assert gc.get_threshold() == (1234, 11, 12)


def test_concurrent_runs_restore_once_the_last_one_leaves(monkeypatch, thresholds):
    gc.set_threshold(1234, 11, 12)
    both_in = threading.Barrier(2, timeout=10)
    first_out = threading.Event()
    seen: dict[str, tuple] = {}

    def held(*a, **kw):
        both_in.wait()
        if threading.current_thread().name == "second":
            assert first_out.wait(timeout=10)
            seen["second, after the first left"] = gc.get_threshold()
        raise RuntimeError("stop")

    def run(name):
        try:
            run_experiment(_tiny_cell(), cluster_spec=_tiny_spec())
        except RuntimeError:
            pass
        if name == "first":
            first_out.set()

    monkeypatch.setattr(experiment, "build_cluster", held)
    threads = [threading.Thread(target=run, args=(n,), name=n) for n in ("first", "second")]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=20)
    assert not any(t.is_alive() for t in threads)
    assert seen == {"second, after the first left": (experiment.GC_GEN0_THRESHOLD, 11, 12)}
    assert gc.get_threshold() == (1234, 11, 12)
