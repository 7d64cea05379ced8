"""Smoke-size paper cells against their committed golden digests.

``benchmarks/results/cells.digests.json`` pins the seed-0 digest of
every benchmark-suite cell; this test recomputes the smoke-size cells
(under a second), every faulted cell (each smoke cell and two striped
cells under each ``examples/faultplans`` plan, about 3 s) and every
figure, table and ablation cell of ``benchmarks/paper_cells.py`` at
smoke scale (about 3 s), and requires each to match.  ``make digests``
checks the full-size cells too.  A deliberate model change re-pins the file
with ``python benchmarks/cell_digests.py --write``.  The file is pinned
on one Python major.minor (float results may round differently on
another), so the digest comparison skips on any other interpreter.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _load_digests_module():
    path = ROOT / "benchmarks" / "cell_digests.py"
    spec = importlib.util.spec_from_file_location("_cell_digests", path)
    assert spec is not None and spec.loader is not None
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod
    spec.loader.exec_module(mod)
    return mod


def test_smoke_cell_digests_match_golden():
    digests = _load_digests_module()
    golden = digests.load_golden()
    reason = digests.skip_reason(golden)
    if reason is not None:
        pytest.skip(reason)
    got = digests.compute(smoke=True)
    assert len(got) == 22
    assert digests.diff(golden["smoke"], got) == []


def test_faulted_cell_digests_match_golden():
    digests = _load_digests_module()
    golden = digests.load_golden()
    reason = digests.skip_reason(golden)
    if reason is not None:
        pytest.skip(reason)
    got = digests.compute_faulted()
    assert len(got) == 5 * 24
    assert digests.diff(golden["faulted"], got) == []


def test_figure_cell_digests_match_golden():
    digests = _load_digests_module()
    golden = digests.load_golden()
    reason = digests.skip_reason(golden)
    if reason is not None:
        pytest.skip(reason)
    got = digests.compute_figures()
    assert len(got) == 113
    assert digests.diff(golden["figures"], got) == []


def test_golden_file_covers_every_full_cell():
    digests = _load_digests_module()
    golden = digests.load_golden()
    cells = digests.load_cells()
    keys = {c.key for c in digests.distinct_cells(cells, smoke=False)}
    assert set(golden["full"]) == keys
    assert set(golden["smoke"]) == keys
    faulted = keys | {c.key for c in digests.striped_cells(cells)}
    assert set(golden["faulted"]) == {
        f"{plan}/{key}" for plan in digests.fault_plans() for key in faulted
    }
    assert set(golden["figures"]) == set(digests.paper_cells.BY_KEY)


def test_every_paper_cell_builds_at_bench_scale():
    """Every row of the paper-cell table builds its bench-scale spec (a
    ratio row with zero compute, skipping its calibration run) without
    running it, with job names a run accepts, and no two rows share a
    key."""
    table = _load_digests_module().paper_cells
    assert len(table.BY_KEY) == len(table.ROWS)
    for row in table.ROWS:
        names = [job.name for job in row.make(row.strategy, False, 0.0).specs]
        assert len(set(names)) == len(names), row.key


def _run_cell(digests, spec, fault_plan=None):
    import repro

    return repro.run_experiment(
        list(spec.specs),
        cluster_spec=spec.cluster_spec,
        dualpar_config=spec.dualpar_config,
        fault_plan=fault_plan,
    )


def test_figure_cells_reach_their_paths():
    """Each figure cell takes the path it pins: server write-back
    flushes, the EMC's mis-prefetch lockout, prefetch-strategy hits."""
    digests = _load_digests_module()

    def smoke(key):
        return digests.paper_cells.spec(key, smoke=True)

    res = _run_cell(digests, smoke("ablation/server-writeback/W/vanilla"))
    assert sum(ds.writeback.n_flushes for ds in res.cluster.data_servers) > 0
    res = _run_cell(digests, smoke("table3/dependent/R/dualpar"))
    assert res.mpi_jobs[0].engine.locked_out
    res = _run_cell(digests, smoke("fig1/demo/R/prefetch"))
    assert res.mpi_jobs[0].engine.n_prefetch_hits > 0


@pytest.mark.parametrize(
    "plan, key",
    [
        pytest.param("crash_recover", key, id=key)
        for key in ["striped/ior-mpi-io-256KB/W/vanilla", "fig3/mpi-io-test/W/dualpar-forced"]
    ]
    + [
        pytest.param(
            "crash_in_flight",
            "striped/ior-mpi-io-256KB/W/vanilla",
            id="crash_in_flight/striped/ior-mpi-io-256KB/W/vanilla",
        )
    ],
)
def test_faulted_cells_reach_the_retry_path(plan, key):
    """The crash_recover pins cover a timed-out and retried request, both
    on a multi-piece striped call and on a list-I/O batch; the
    crash_in_flight pins cover the data server's black-hole path, a
    request dropped on arrival at a crashed server.  Every write id is
    committed exactly once."""
    digests = _load_digests_module()
    cells = digests.load_cells()
    by_key = {
        c.key: c
        for c in digests.distinct_cells(cells, smoke=True) + digests.striped_cells(cells)
    }
    result = _run_cell(digests, by_key[key].spec, digests.fault_plans()[plan])
    clients = digests.fault_counters(result)["clients"]
    assert sum(c[0] for c in clients) > 0  # timeouts
    assert sum(c[1] for c in clients) > 0  # retries
    if plan == "crash_in_flight":
        assert sum(ds.n_dropped_requests for ds in result.cluster.data_servers) > 0
    committed = [i for ds in result.cluster.data_servers for i in ds.commit_log]
    assert sorted(committed) == list(range(1, result.faults._req_counter + 1))


def test_every_cell_logs_an_early_mix_fault_event():
    """``early_mix`` starts its faults within the first 2 ms, so unlike
    the plans whose first event is at 0.05 s it reaches every faulted
    cell, the short collective and forced smoke cells included."""
    digests = _load_digests_module()
    cells = digests.load_cells()
    plan = digests.fault_plans()["early_mix"]
    for cell in digests.distinct_cells(cells, smoke=True) + digests.striped_cells(cells):
        result = _run_cell(digests, cell.spec, plan)
        assert result.faults.log, cell.key
