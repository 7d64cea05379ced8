"""The two event queues stay bit-identical.

The kernel's ordering contract is ``(t, priority, arrival)``: FIFO within
one ``(t, priority)`` band, URGENT (0) before NORMAL (1) at equal times.
The pure-Python binary heap of single events realises that contract
trivially; the C binary heap of ``(t, priority)`` bands
(``repro.sim._cq.BandHeap``) must reproduce it *exactly* -- including
under cancels (``requeue_front`` with ``None`` holes), re-arms (pushes
made while a cohort drains, which open a new band), two queued bands of
one key (pushes A, B, A) and preemption (an URGENT push landing at the
active band's timestamp).

Three layers of evidence:

1. A Hypothesis interpreter drives both queues through the same
   randomized op script (pushes, partial dispatch, early stops,
   same-time urgent pushes) and compares the full dispatch streams.
2. End-to-end: the same seeded simulation -- including interrupt-driven
   cancel/re-arm traffic -- produces identical logs on the heap, on the
   C queue under the C dispatch loop, and on the C queue under the
   Python loop (``sanitize=True``); a paper cell run without a C
   compiler matches the C kernel's result digest.
3. The one dispatch loop: cutting a run into ``run(until=)``, ``step``
   and ``run_until_event`` segments dispatches exactly what one
   ``run()`` does, on both queues.

The C queue is built for these tests even when ``REPRO_SIM_ACCEL=0``
keeps simulators on the heap; they skip only without a C compiler.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import JobSpec, MpiIoTest
from repro.cluster import paper_spec
from repro.runner.parallel import ExperimentSpec, _run_spec
from repro.service import canonical_json, result_to_dict
from repro.sim import HeapQueue, Interrupt, SimulationError, Simulator, all_of, any_of
from repro.sim import _accel
from repro.sim import core as sim_core

NORMAL = sim_core.NORMAL
URGENT = sim_core.URGENT

# Collision-heavy time grid: duplicate timestamps, fractions, values
# many orders of magnitude apart, and entries near the top of the double
# range (5e299, 2e300).
TIMES = [0.0, 0.25, 0.25, 0.5, 1.0, 1.0, 1.5, 3.0, 7.5, 16.0, 100.0, 1e4, 5e299, 2e300]
#: Relative delays used by mid-dispatch pushes (0.0 = same-time re-arm).
DELTAS = [0.0, 0.0, 0.25, 1.0, 64.0, 1e4]


@pytest.fixture(scope="module")
def cq():
    """The C accelerator module, built even when ``REPRO_SIM_ACCEL=0``
    keeps simulators on the heap; skipped only without a C compiler."""
    if sim_core._CQ is not None:
        return sim_core._CQ
    if shutil.which(os.environ.get("CC", "cc")) is None:
        pytest.skip("no C compiler")
    saved = os.environ.pop("REPRO_SIM_ACCEL", None)
    _accel._reset_for_tests()
    try:
        mod = _accel.load()
    finally:
        if saved is not None:
            os.environ["REPRO_SIM_ACCEL"] = saved
        _accel._reset_for_tests()
    assert mod is not None, "a C compiler exists but the accelerator did not build"
    return mod


def _run_script(make_queue, initial, reactions):
    """Interpret one op script against a fresh queue; return the dispatch log.

    ``initial``: list of ``(t, prio)`` pushes. ``reactions`` maps the
    ordinal of a dispatched event to a list of ops executed right after
    it: ``("push", dt, prio)`` re-arms at ``t + dt``; ``("stop",)``
    abandons the cohort via ``requeue_front`` (early driver exit).
    """
    q = make_queue()
    token = 0
    log = []
    for t, p in initial:
        q.push(t, p, token)
        token += 1
    log.append(("seeded", len(q), q.peek()))
    while True:
        cohort = q.pop_cohort()
        if cohort is None:
            break
        t, prio, events = cohort
        i = 0
        stopped = False
        while i < len(events):
            ev = events[i]
            events[i] = None  # the driver contract: null before dispatch
            i += 1
            if ev is None:
                continue
            log.append((t, prio, ev))
            for op in reactions.get(len(log), ()):
                if op[0] == "push":
                    q.push(t + op[1], op[2], token)
                    token += 1
                else:  # "stop"
                    stopped = True
            if stopped:
                q.requeue_front(t, prio, events)
                break
    log.append(("drained", len(q), q.peek()))
    return log


op_strategy = st.one_of(
    st.tuples(
        st.just("push"),
        st.sampled_from(DELTAS),
        st.sampled_from([URGENT, NORMAL, NORMAL]),
    ),
    st.just(("stop",)),
)
script_strategy = st.tuples(
    st.lists(
        st.tuples(st.sampled_from(TIMES), st.sampled_from([URGENT, NORMAL, NORMAL])),
        min_size=1,
        max_size=40,
    ),
    st.dictionaries(st.integers(min_value=1, max_value=60), st.lists(op_strategy, max_size=3), max_size=12),
)


_TWO_BANDS_OF_ONE_KEY = [(1.0, NORMAL), (1.0, NORMAL), (2.0, NORMAL), (1.0, NORMAL)]


# Reaction keys count log entries: the first dispatched event is 2.
# A same-time, same-priority re-arm, then a stop, within one cohort: the
# remainder must run ahead of the re-armed band.
@example(script=(
    [(1.0, NORMAL)] * 3,
    {2: [("push", 0.0, NORMAL), ("stop",)], 3: [("push", 0.0, NORMAL)]},
))
# Pushes A, B, A queue two bands of key A; a stop in the first one must
# requeue its remainder ahead of the second.
@example(script=(_TWO_BANDS_OF_ONE_KEY, {2: [("stop",)]}))
# An URGENT same-time push preempts the draining NORMAL cohort while a
# second band of its key is still queued.
@example(script=(_TWO_BANDS_OF_ONE_KEY, {2: [("push", 0.0, URGENT)]}))
# The same re-arm, stop and preemption near the top of the double range.
@example(script=(
    [(2e300, NORMAL)] + [(5e299, NORMAL)] * 3 + [(1.0, URGENT), (5e299, NORMAL), (2e300, NORMAL)],
    {3: [("push", 0.0, NORMAL), ("stop",)], 4: [("push", 0.0, URGENT)]},
))
# 4,096 distinct times drain in push order.
@example(script=([(float(i) * 100.0, NORMAL) for i in range(4096)], {}))
@settings(max_examples=80, deadline=None)
@given(script=script_strategy)
def test_disciplines_identical_over_random_schedules(cq, script):
    initial, reactions = script
    reference = _run_script(HeapQueue, initial, reactions)
    # Every pushed token (assigned 0, 1, 2, ... in push order) must be
    # dispatched exactly once -- nothing lost, nothing duplicated.
    dispatched = [e[2] for e in reference if isinstance(e[2], int)]
    assert sorted(dispatched) == list(range(len(dispatched)))
    assert _run_script(cq.BandHeap, initial, reactions) == reference


#: Delays for the kernel-vocabulary workload (0.0 = same-time re-arm).
SIM_DELAYS = [0.0, 0.001, 0.5, 1.0, 1.0, 2.5, 64.0, 1000.0]

#: One step of a worker: every kind of wait the dispatch loops handle.
sim_op_strategy = st.one_of(
    st.tuples(st.just("timeout"), st.sampled_from(SIM_DELAYS)),
    # contended Resource: request, hold, release
    st.tuples(st.just("acquire"), st.integers(0, 1), st.sampled_from(SIM_DELAYS)),
    # request with a deadline; release whether granted or still queued
    st.tuples(st.just("cancel"), st.integers(0, 1), st.sampled_from(SIM_DELAYS)),
    st.tuples(st.just("pingpong"), st.integers(0, 9)),
    st.tuples(st.sampled_from(["all_of", "any_of"]),
              st.lists(st.sampled_from(SIM_DELAYS), min_size=1, max_size=3)),
    # join a child that is still running (False) or already finished (True)
    st.tuples(st.just("join"), st.sampled_from(SIM_DELAYS), st.booleans()),
    # a failed child process (True) or failed plain event, caught
    st.tuples(st.just("fail"), st.booleans()),
    # interrupt a child after the delay (0.0: before it starts) while it
    # waits on a timeout (False) or on an event that failed (True)
    st.tuples(st.just("interrupt"), st.sampled_from(SIM_DELAYS), st.booleans()),
    # yield a timeout that was processed while waiting on another
    st.tuples(st.just("stale"), st.sampled_from(SIM_DELAYS)),
)


def _kernel_vocabulary_log(specs, **sim_kw):
    """Run one worker per op list in ``specs``; return the event log."""
    from repro.sim.resources import Resource, Store

    sim = Simulator(**sim_kw)
    resources = [Resource(sim, 1), Resource(sim, 2)]
    store = Store(sim, capacity=2)
    log = []

    def child(tag, d, fail=False):
        yield sim.timeout(d)
        if fail:
            raise ValueError(tag)
        return tag

    def sleeper(tag, on_failed):
        try:
            if on_failed:
                # left behind by the interrupt: a waiter that was detached
                # has already defused it, so it must not raise out of run()
                ev = sim.event()
                ev.fail(ValueError(tag))
                yield ev
            else:
                yield sim.timeout(3.0)
            log.append((sim.now, tag, "slept"))
        except ValueError:
            log.append((sim.now, tag, "failed"))
        except Interrupt as it:
            log.append((sim.now, tag, "int", it.cause))
            yield sim.timeout(0.5)
        return tag

    def worker(i, ops):
        for j, op in enumerate(ops):
            kind = op[0]
            tag = (i, j)
            if kind == "timeout":
                yield sim.timeout(op[1])
                out = None
            elif kind == "acquire":
                req = resources[op[1]].request()
                yield req
                yield sim.timeout(op[2])
                resources[op[1]].release(req)
                out = None
            elif kind == "cancel":
                req = resources[op[1]].request()
                got = yield any_of(sim, [req, sim.timeout(op[2])])
                resources[op[1]].release(req)
                out = req in got
            elif kind == "pingpong":
                yield store.put((i, j, op[1]))
                out = yield store.get()
            elif kind in ("all_of", "any_of"):
                kids = [sim.process(child((i, j, k), d)) for k, d in enumerate(op[1])]
                cond = all_of(sim, kids) if kind == "all_of" else any_of(sim, kids)
                got = yield cond
                out = sorted(got.values())
            elif kind == "join":
                kid = sim.process(child(tag, op[1]))
                if op[2]:
                    yield sim.timeout(op[1] + 0.5)
                out = yield kid
            elif kind == "fail":
                if op[1]:
                    ev = sim.process(child(tag, 0.5, fail=True))
                else:
                    ev = sim.event()
                    ev.fail(ValueError(tag))
                try:
                    yield ev
                    out = "not raised"
                except ValueError as exc:
                    out = ("caught", exc.args)
            elif kind == "interrupt":
                kid = sim.process(sleeper(tag, op[2]))
                if op[1]:
                    yield sim.timeout(op[1])
                if kid.is_alive:
                    kid.interrupt(tag)
                out = yield kid
            else:  # "stale"
                early = sim.timeout(0.0, value=tag)
                yield sim.timeout(op[1] + 0.001)
                out = yield early
            log.append((sim.now, i, j, kind, out))

    for i, ops in enumerate(specs):
        sim.process(worker(i, ops))
    sim.run()
    return log


@settings(max_examples=40, deadline=None)
@given(specs=st.lists(st.lists(sim_op_strategy, min_size=1, max_size=4), min_size=1, max_size=5))
def test_simulation_identical_across_queues(cq, specs):
    """Same coroutine workload -> same log, every queue, sanitized or not.

    The workload uses every kind of wait the dispatch loops handle, so the
    C loop's own copies of Event._process and Process._resume are checked
    against the Python ones (the sanitized runs use the Python loop)."""
    reference = _kernel_vocabulary_log(specs, queue=HeapQueue())
    # every worker ran every op (worker entries are the 5-tuples)
    assert sum(len(e) == 5 for e in reference) == sum(len(ops) for ops in specs)
    assert _kernel_vocabulary_log(specs) == reference
    assert _kernel_vocabulary_log(specs, queue=HeapQueue(), sanitize=True) == reference
    assert _kernel_vocabulary_log(specs, queue=cq.BandHeap()) == reference
    assert _kernel_vocabulary_log(specs, queue=cq.BandHeap(), sanitize=True) == reference


@pytest.mark.parametrize("sanitize", [False, True])
@pytest.mark.parametrize("kernel", ["heap", "c"])
def test_unwaited_failure_raises_out_of_run(cq, kernel, sanitize):
    """A failed event nobody waits on raises out of run() on every loop;
    the schedule keeps what was still queued behind it."""
    sim = Simulator(queue=HeapQueue() if kernel == "heap" else cq.BandHeap(), sanitize=sanitize)
    ev = sim.event()
    later = sim.event()
    ev.fail(KeyError("lost"))
    later.succeed("kept")
    with pytest.raises(KeyError, match="lost"):
        sim.run()
    assert ev.processed and not later.processed
    assert sim.run_until_event(later) == "kept"


def test_interrupt_cancel_rearm_identical_across_queues(cq):
    """Interrupts cancel a pending timeout and the victim re-arms: the
    cancel/re-arm traffic must not perturb ordering on either queue."""

    def run(queue):
        sim = Simulator(queue=queue)
        log = []

        def victim(i):
            d = 10.0 + i
            while True:
                try:
                    yield sim.timeout(d)
                    log.append((sim.now, i, "done"))
                    return
                except Interrupt as it:
                    log.append((sim.now, i, "int", it.cause))
                    d = d / 2  # re-arm with a fresh, shorter timeout

        def harasser(targets):
            for k in range(3):
                yield sim.timeout(1.0 + k)
                for p in targets:
                    if p.is_alive:
                        p.interrupt(cause=k)

        procs = [sim.process(victim(i)) for i in range(4)]
        sim.process(harasser(procs))
        sim.run()
        return log

    reference = run(HeapQueue())
    assert reference, "scenario produced no events"
    assert any(e[2] == "int" for e in reference)
    assert run(cq.BandHeap()) == reference


# ---------------------------------------------------------------------------
# the one dispatch loop
# ---------------------------------------------------------------------------


segment_strategy = st.lists(
    st.one_of(
        st.tuples(st.just("run"), st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.5, 3.0, 64.0])),
        st.just(("step",)),
        st.tuples(st.just("until"), st.integers(min_value=0, max_value=5)),
    ),
    max_size=12,
)


def _segmented_log(make_queue, specs, segments):
    """Run the ``specs`` workload: ``segments`` first, then one ``run()``.

    Worker ``i`` sleeps through its delays, logging each wake-up, then
    optionally joins an earlier worker (an URGENT completion landing in
    the middle of a NORMAL cohort).  Returns the log, the final clock,
    and per segment the clock, next event time and log length.
    """
    sim = Simulator(queue=make_queue())
    log = []
    procs = []

    def worker(i, delays, join):
        for j, d in enumerate(delays):
            yield sim.timeout(d)
            log.append((sim.now, i, j))
        if join is not None:
            value = yield procs[join]
            log.append((sim.now, i, "joined", value))
        return i

    for i, (delays, join) in enumerate(specs):
        procs.append(sim.process(worker(i, delays, join if join < i else None)))
    marks = []
    for seg in segments:
        if seg[0] == "run":
            # A cut in the past runs nothing: ``run`` refuses to rewind.
            until = max(seg[1], sim.now)
            assert sim.run(until=until) == until
            assert sim.peek() > until
        elif seg[0] == "step":
            if sim.peek() < float("inf"):
                sim.step()
        else:
            target = procs[seg[1] % len(procs)]
            assert sim.run_until_event(target) == seg[1] % len(procs)
        marks.append((seg, sim.now, sim.peek(), len(log)))
    sim.run()
    return log, sim.now, marks


@settings(max_examples=60, deadline=None)
@given(
    specs=st.lists(
        st.tuples(
            st.lists(st.sampled_from([0.0, 0.5, 0.5, 1.0, 1.5, 3.0]), min_size=1, max_size=4),
            st.integers(min_value=0, max_value=5),
        ),
        min_size=1,
        max_size=6,
    ),
    segments=segment_strategy,
)
def test_segmented_run_matches_single_run(cq, specs, segments):
    """``run(until=)``/``step``/``run_until_event`` are the same loop as
    ``run()`` with another stop condition: any cut of one run into
    segments dispatches the same events in the same order."""
    reference = _segmented_log(HeapQueue, specs, [])
    heap_cut = _segmented_log(HeapQueue, specs, segments)
    assert heap_cut[0] == reference[0]
    # ``run(until=)`` moves the clock to its cut even past the last event.
    cut = max((seg[1] for seg in segments if seg[0] == "run"), default=0.0)
    assert heap_cut[1] == max(reference[1], cut)
    assert _segmented_log(cq.BandHeap, specs, []) == reference
    # The segment boundaries themselves agree between the two loops.
    assert _segmented_log(cq.BandHeap, specs, segments) == heap_cut


# ---------------------------------------------------------------------------
# kernel selection, the no-compiler fallback, and introspection
# ---------------------------------------------------------------------------


def test_queue_selection():
    default_q = Simulator()._queue
    if sim_core._CQ is not None:
        assert isinstance(default_q, sim_core._CQ.BandHeap)
    else:
        assert isinstance(default_q, HeapQueue)
    inst = HeapQueue()
    sim = Simulator(queue=inst)
    assert sim._queue is inst and sim._accel is None
    with pytest.raises(SimulationError, match="event-queue instance"):
        Simulator(queue="heap")


def _cell_digest() -> str:
    spec = ExperimentSpec(
        specs=(JobSpec("m", 8, MpiIoTest(file_size=4 * 1024 * 1024, op="R")),),
        cluster_spec=paper_spec(n_compute_nodes=8, trace_disks=True),
    )
    return hashlib.sha256(canonical_json(result_to_dict(_run_spec(spec))).encode()).hexdigest()


def test_no_compiler_fallback_matches_c_kernel(monkeypatch, tmp_path):
    """Without a C compiler the accelerator fails to build, simulators get
    the heap, and a paper cell's result digest equals the C kernel's."""
    reference = _cell_digest()  # the C kernel when it is available
    monkeypatch.setattr(_accel, "_cached", None)
    monkeypatch.setattr(_accel, "_attempted", False)
    monkeypatch.setattr(_accel, "_so_path", lambda: str(tmp_path / "_cq.so"))
    monkeypatch.setenv("CC", str(tmp_path / "no-such-cc"))
    monkeypatch.delenv("REPRO_SIM_ACCEL", raising=False)
    assert _accel.load() is None
    assert not (tmp_path / "_cq.so").exists()
    monkeypatch.setattr(sim_core, "_CQ", sim_core._load_accel())
    assert sim_core._CQ is None
    sim = Simulator()
    assert isinstance(sim._queue, HeapQueue) and sim._accel is None
    assert _cell_digest() == reference


#: Run by each concurrent loader: build (or reuse) the accelerator of the
#: package copy on ``sys.path``, then a tiny tie-heavy simulation.
_LOAD_AND_RUN = """
import json
from repro.sim import _accel
mod = _accel.load()
from repro.sim import Simulator
sim = Simulator()
log = []
def body(i):
    for k in range(3):
        yield sim.timeout(0.5 * (i % 3))
        log.append((sim.now, i, k))
for i in range(6):
    sim.process(body(i))
sim.run()
print(json.dumps({
    "file": _accel.__file__,
    "api": getattr(mod, "API_VERSION", None),
    "c_kernel": sim._accel is not None,
    "log": log,
}))
"""


def test_concurrent_first_import_builds_are_safe(tmp_path):
    """Four interpreters importing a package copy with no built ``_cq``
    all compile it at once: each gets a working module, the runs agree,
    and no temporary build output is left behind."""
    cc = os.environ.get("CC", "cc")
    if shutil.which(cc) is None:
        pytest.skip("no C compiler")
    pkg = tmp_path / "repro"
    src_pkg = os.path.dirname(os.path.dirname(_accel.__file__))
    shutil.copytree(src_pkg, pkg, ignore=shutil.ignore_patterns("*.so", "__pycache__"))
    assert not list((pkg / "sim").glob("_cq*.so"))
    env = dict(os.environ, PYTHONPATH=str(tmp_path))
    env.pop("REPRO_SIM_ACCEL", None)
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", _LOAD_AND_RUN],
            env=env,
            cwd=tmp_path,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        for _ in range(4)
    ]
    outs = []
    for proc in procs:
        out, err = proc.communicate(timeout=300)
        assert proc.returncode == 0, err
        outs.append(json.loads(out))
    for res in outs:
        assert res["file"].startswith(str(pkg))
        assert res["api"] == _accel._API_VERSION
        assert res["c_kernel"]
    assert all(res["log"] == outs[0]["log"] for res in outs)
    assert len(outs[0]["log"]) == 18
    assert list((pkg / "sim").glob("_cq*.so"))
    assert not list((pkg / "sim").glob("_cq*.tmp.*"))


def test_info_and_len(cq):
    for make in (HeapQueue, cq.BandHeap):
        q = make()
        assert len(q) == 0
        assert q.peek() == float("inf")
        for i in range(200):
            q.push(float(i % 7), NORMAL, i)
        assert len(q) == 200, make
        assert q.info()["count"] == 200, make
        assert q.peek() == 0.0
