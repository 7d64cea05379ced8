"""Determinism regression: identical results across repeats, and a
Timeout pool that is invisible to simulation code.

The kernel fast path recycles Timeout events through a free list, guarded
by a refcount check: a timeout is reused only when nothing but the
dispatch loop still holds it.  The same seeded experiment must produce
bit-identical measurements (JobResult fields and the raw blktrace
``(time, lbn, size)`` sequences) across repeated runs, and a Timeout that
user code still references must never be handed out again.
"""

from __future__ import annotations

from dataclasses import asdict

from repro import JobSpec, MpiIoTest, run_experiment
from repro.cluster import paper_spec
from repro.sim import HeapQueue, Simulator


def _measurements(strategy: str):
    res = run_experiment(
        [
            JobSpec(
                "m",
                8,
                MpiIoTest(file_size=8 * 1024 * 1024, op="R"),
                strategy=strategy,
            )
        ],
        cluster_spec=paper_spec(n_compute_nodes=8, trace_disks=True),
    )
    jobs = [asdict(j) for j in res.jobs]
    traces = [
        [(r.time, r.lbn, r.nsectors) for r in t.records] if t is not None else None
        for t in res.cluster.traces
    ]
    assert any(t for t in traces), "expected at least one non-empty blktrace"
    return jobs, traces


def test_repeat_runs_identical():
    for strategy in ("vanilla", "dualpar-forced"):
        assert _measurements(strategy) == _measurements(strategy)


def test_timeout_pool_actually_recycles():
    sim = Simulator()

    def loop(n):
        for _ in range(n):
            yield sim.timeout(0.001)

    sim.process(loop(50))
    sim.run()
    assert sim._pool, "pool should hold recycled Timeout objects after a run"


def test_referenced_timeout_is_never_recycled():
    """A fired Timeout that user code still holds stays out of the pool:
    no later ``sim.timeout()`` returns it, and its value is untouched."""
    for make_sim in (Simulator, lambda: Simulator(queue=HeapQueue())):
        sim = make_sim()
        held = []
        aliased = []

        def proc():
            first = sim.timeout(1.0, value="first")
            held.append(first)
            yield first
            for _ in range(50):
                ev = sim.timeout(0.5, value="later")
                aliased.append(ev is first)
                yield ev

        sim.process(proc())
        sim.run()
        assert sim._pool, "unreferenced timeouts should still be recycled"
        assert not any(aliased)
        assert all(ev is not held[0] for ev in sim._pool)
        assert held[0].processed and held[0].value == "first"
