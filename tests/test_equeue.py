"""The two event queues stay bit-identical.

The kernel's ordering contract is ``(t, priority, arrival)``: FIFO within
one ``(t, priority)`` band, URGENT (0) before NORMAL (1) at equal times.
The pure-Python binary heap realises that contract trivially; the C
calendar queue (``repro.sim._cq.CalQ``) must reproduce it *exactly* --
including under cancels (``requeue_front`` with ``None`` holes), re-arms
(pushes made while a cohort drains), preemption (an URGENT push landing
at the active band's timestamp) and lazy resizes.

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
import os
import shutil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import JobSpec, MpiIoTest
from repro.cluster import paper_spec
from repro.runner.parallel import ExperimentSpec, _run_spec
from repro.service import canonical_json, result_to_dict
from repro.sim import HeapQueue, Interrupt, SimulationError, Simulator
from repro.sim import _accel
from repro.sim import core as sim_core

NORMAL = sim_core.NORMAL
URGENT = sim_core.URGENT

# Collision-heavy time grid: duplicate timestamps, sub-width fractions,
# values far beyond the initial wheel horizon, and past-1e300 entries
# that must live in the overflow heap forever.
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


@settings(max_examples=80, deadline=None)
@given(script=script_strategy)
def test_disciplines_identical_over_random_schedules(cq, script):
    initial, reactions = script
    reference = _run_script(HeapQueue, initial, reactions)
    # Every pushed token (assigned 0, 1, 2, ... in push order) must be
    # dispatched exactly once -- nothing lost, nothing duplicated.
    dispatched = [e[2] for e in reference if isinstance(e[2], int)]
    assert sorted(dispatched) == list(range(len(dispatched)))
    assert _run_script(cq.CalQ, initial, reactions) == reference


@settings(max_examples=40, deadline=None)
@given(
    specs=st.lists(
        st.lists(st.sampled_from([0.0, 0.001, 0.5, 1.0, 1.0, 2.5, 64.0, 1000.0]), min_size=1, max_size=5),
        min_size=1,
        max_size=6,
    )
)
def test_simulation_identical_across_queues(cq, specs):
    """Same coroutine workload -> same log, every queue, sanitized or not."""

    def run(**kw):
        sim = Simulator(**kw)
        log = []

        def worker(i, delays):
            for j, d in enumerate(delays):
                yield sim.timeout(d)
                log.append((sim.now, i, j))

        for i, delays in enumerate(specs):
            sim.process(worker(i, delays))
        sim.run()
        return log

    reference = run(queue=HeapQueue())
    assert run() == reference
    assert run(queue=HeapQueue(), sanitize=True) == reference
    assert run(queue=cq.CalQ()) == reference
    assert run(queue=cq.CalQ(), sanitize=True) == reference


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
    assert run(cq.CalQ()) == reference


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
    assert _segmented_log(cq.CalQ, specs, []) == reference
    # The segment boundaries themselves agree between the two loops.
    assert _segmented_log(cq.CalQ, specs, segments) == heap_cut


# ---------------------------------------------------------------------------
# kernel selection, the no-compiler fallback, and introspection
# ---------------------------------------------------------------------------


def test_queue_selection():
    default_q = Simulator()._queue
    if sim_core._CQ is not None:
        assert isinstance(default_q, sim_core._CQ.CalQ)
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


def test_info_and_len(cq):
    for make in (HeapQueue, cq.CalQ):
        q = make()
        assert len(q) == 0
        assert q.peek() == float("inf")
        for i in range(200):
            q.push(float(i % 7), NORMAL, i)
        info = q.info()
        assert len(q) == 200, make
        total = info["count"] + info.get("overflow", 0) + info.get("past", 0)
        assert total == 200, make
        assert q.peek() == 0.0


def test_calendar_resize_triggers_and_preserves_order(cq):
    q = cq.CalQ()
    n = 4096
    for i in range(n):
        q.push(float(i) * 100.0, NORMAL, i)  # gap 100 vs width 1: forces rewidth
    out = []
    while True:
        c = q.pop_cohort()
        if c is None:
            break
        out.extend(c[2])
        c[2][:] = [None] * len(c[2])
    assert out == list(range(n))
    assert q.info()["resizes"] > 0
