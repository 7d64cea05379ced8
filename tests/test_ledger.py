"""The kernel's lifecycle ledger: the one record of live processes and
open resource requests that the sanitizer and the stall watchdog read."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

from repro.devtools.sanitizer import SanitizerError
from repro.guard import GuardConfig, StallWatchdog
from repro.runner.experiment import JobSpec, run_experiment
from repro.sim import Resource, Simulator
from repro.sim.ledger import Ledger
from repro.workloads import MpiIoTest

ROOT = Path(__file__).resolve().parent.parent


def _guarded_sanitized_sim():
    sim = Simulator(sanitize=True)
    wd = StallWatchdog(sim, interval_s=1.0, stall_window_s=2.0)
    assert wd.ledger is sim.sanitizer.ledger is sim._ledger
    return sim, wd


def test_nominal_simulator_has_no_ledger():
    assert Simulator(sanitize=False)._ledger is None


def test_double_release_is_attributed_under_a_watchdog():
    sim, _ = _guarded_sanitized_sim()
    res = Resource(sim)

    def dbl():
        req = res.request()
        yield req
        yield sim.timeout(0.5)
        res.release(req)
        yield sim.timeout(0.25)
        res.release(req)

    sim.process(dbl(), name="dbl-proc")
    with pytest.raises(SanitizerError) as exc:
        sim.run(until=5.0)
    assert str(exc.value) == (
        "double release of Resource(capacity=1) slot acquired by 'dbl-proc' "
        "(granted at t=0); first released at t=0.5 by 'dbl-proc'; "
        "released again at t=0.75 by 'dbl-proc'"
    )


def test_deadlock_report_names_the_slot_holder_under_the_sanitizer():
    sim, wd = _guarded_sanitized_sim()
    r1, r2 = Resource(sim), Resource(sim)

    def grab(first, second):
        yield first.request()
        yield sim.timeout(0.1)
        yield second.request()

    sim.process(grab(r1, r2), name="p-a")
    sim.process(grab(r2, r1), name="p-b")
    sim.run(until=10.0)
    assert wd.deadlocks[0].render() == "\n".join(
        [
            "watchdog deadlock at t=3.000s: 2 process(es) blocked",
            "  process  waiting on               since  holds",
            "  p-a      request(Resource#0)      1.000  Resource#1",
            "  p-b      request(Resource#1)      1.000  Resource#0",
        ]
    )


@pytest.mark.parametrize("sanitize", [False, True])
def test_watchdog_ignores_processes_created_before_it(sanitize):
    """A sanitizer's ledger already lists the processes spawned before the
    watchdog; the watchdog still watches only those created after it."""
    sim = Simulator(sanitize=sanitize)

    def wait_forever():
        yield sim.event()

    sim.process(wait_forever(), name="early")
    wd = StallWatchdog(sim, interval_s=1.0, stall_window_s=2.0)
    sim.process(wait_forever(), name="late")
    sim.run(until=5.0)
    assert [r.render() for r in wd.reports] == [
        "\n".join(
            [
                "watchdog deadlock at t=3.000s: 1 process(es) blocked",
                "  process  waiting on      since  holds",
                "  late     Event           1.000  -",
            ]
        )
    ]


def test_guarded_cell_reports_the_same_with_and_without_the_sanitizer(monkeypatch):
    def reports(sanitize):
        if sanitize:
            monkeypatch.setenv("REPRO_SANITIZE", "1")
        else:
            monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        res = run_experiment(
            [JobSpec("j", 4, MpiIoTest(file_size=8 << 20), strategy="dualpar-forced")],
            guard=GuardConfig(watchdog_interval_s=0.01, stall_window_s=0.02),
        )
        assert (res.runtime.sim.sanitizer is not None) == sanitize
        return [r.render() for r in res.guard.watchdog.reports]

    plain = reports(False)
    assert plain  # idle daemons and waiting ranks do stall for 20 ms
    assert reports(True) == plain


def test_released_request_leaves_the_ledger_but_keeps_its_record():
    sim = Simulator(sanitize=True)
    ledger = sim._ledger
    res = Resource(sim)
    first, second = res.request(), res.request()
    res.release(second)  # cancelled while queued
    assert list(ledger.requests) == [first]
    assert second.record.state == "cancelled"
    res.release(first)
    assert ledger.requests == {}
    assert first.record.state == "released"


def test_slot_handed_over_from_the_queue_is_attributed_when_leaked():
    sim = Simulator(sanitize=True)
    res = Resource(sim)

    def worker(hold_s, release):
        req = res.request()
        yield req
        yield sim.timeout(hold_s)
        if release:
            res.release(req)

    sim.process(worker(1.0, True), name="a")
    sim.process(worker(0.5, False), name="b")
    with pytest.raises(SanitizerError) as exc:
        sim.run()
    assert str(exc.value) == (
        "1 resource slot(s) never released: "
        "Resource(capacity=1) held by 'b' (granted at t=1)"
    )


def test_ledger_is_empty_after_sanitized_smoke_cells(monkeypatch):
    """Every sanitized smoke cell drains its ledger and still matches its
    golden digest: the ledger observes without perturbing."""
    path = ROOT / "benchmarks" / "cell_digests.py"
    spec = importlib.util.spec_from_file_location("_cell_digests", path)
    assert spec is not None and spec.loader is not None
    digests = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = digests
    spec.loader.exec_module(digests)

    ledgers: list[Ledger] = []
    init = Ledger.__init__

    def noting(self, sim):
        init(self, sim)
        ledgers.append(self)

    monkeypatch.setattr(Ledger, "__init__", noting)
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    got = digests.compute(smoke=True)
    assert len(ledgers) == len(got)
    for ledger in ledgers:
        assert ledger.requests == {}
        assert all(p.daemon and p.is_alive for p in ledger.procs)
    golden = digests.load_golden()
    if digests.skip_reason(golden) is None:
        assert digests.diff(golden["smoke"], got) == []


def test_double_release_of_a_cancelled_request_says_it_was_never_granted():
    """A request cancelled while queued and then released again is
    reported as requested and cancelled, not as acquired and released."""
    sim = Simulator(sanitize=True)
    res = Resource(sim)

    def holder():
        req = res.request()
        yield req
        yield sim.timeout(1.0)
        res.release(req)

    def canceller():
        req = res.request()  # queued behind the holder
        yield sim.timeout(0.2)
        res.release(req)  # cancels it
        res.release(req)

    sim.process(holder(), name="holder")
    sim.process(canceller(), name="canceller")
    with pytest.raises(SanitizerError) as exc:
        sim.run()
    assert str(exc.value) == (
        "double release of Resource(capacity=1) slot requested by 'canceller' "
        "at t=0; cancelled while queued at t=0.2 by 'canceller'; "
        "released again at t=0.2 by 'canceller'"
    )
