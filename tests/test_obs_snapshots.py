"""The observed-run snapshot contract: which metrics exist, and their bytes.

Three small observed runs -- vanilla, collective, and ``dualpar-forced``
under ``examples/faultplans/crash_recover.json`` with the guard -- each
produce a metrics snapshot.  Every interpreter checks the snapshot's
sorted ``(name, kind)`` set against the families pinned below.  The
sha256 of each canonical snapshot (the bytes ``write_metrics`` writes) is
pinned too, but float results may round differently on another Python
major.minor, so that comparison runs only on the pinned interpreter and
skips elsewhere, as ``benchmarks/cell_digests.py`` does.  Both kernels
(C accelerator and ``REPRO_SIM_ACCEL=0``) must match the same digests.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import sys

import pytest

from repro import JobSpec, MpiIoTest, run_experiment
from repro.cluster import paper_spec
from repro.faults import FaultPlan
from repro.obs import Observability

REPO = pathlib.Path(__file__).resolve().parent.parent

#: Interpreter the digests below were computed on.
PINNED_PYTHON = "3.11"

#: Data servers (and disks, block layers, locality daemons) in the
#: cluster; a ``<i>`` family expands to one name per server.
N_SERVERS = 9

_KINDS = {
    "counters": "counter",
    "gauges": "gauge",
    "histograms": "histogram",
    "timeseries": "timeseries",
    "event_logs": "event_log",
}

_PLAIN_FAMILIES = [
    ("blk.blk<i>.merged", "counter"),
    ("blk.blk<i>.queue_depth", "histogram"),
    ("blk.blk<i>.start_delay_s", "histogram"),
    ("blk.blk<i>.submitted", "counter"),
    ("blk.blk<i>.unit_sectors", "histogram"),
    ("blk.blk<i>.units_served", "counter"),
    ("cache.evictions", "counter"),
    ("cache.gets", "counter"),
    ("cache.hits", "counter"),
    ("cache.puts", "counter"),
    ("disk.disk<i>.accesses", "counter"),
    ("disk.disk<i>.rotation_s", "counter"),
    ("disk.disk<i>.sectors", "counter"),
    ("disk.disk<i>.seek_s", "counter"),
    ("disk.disk<i>.seek_sectors", "histogram"),
    ("disk.disk<i>.seeks", "counter"),
    ("disk.disk<i>.sequential_hits", "counter"),
    ("disk.disk<i>.transfer_s", "counter"),
    ("locality.loc<i>.seekdist", "timeseries"),
    ("pfs.ds<i>.bytes_read", "counter"),
    ("pfs.ds<i>.bytes_written", "counter"),
    ("pfs.ds<i>.requests", "counter"),
]

_DUALPAR_GUARD_FAULT_FAMILIES = [
    ("crm.j.prefetch_batches", "counter"),
    ("crm.j.prefetched_bytes", "counter"),
    ("crm.j.writeback_batches", "counter"),
    ("crm.j.writeback_bytes", "counter"),
    ("emc.ave_req_dist", "timeseries"),
    ("emc.ave_seek_dist", "timeseries"),
    ("emc.improvement", "timeseries"),
    ("emc.mode_transitions", "counter"),
    ("emc.ticks", "counter"),
    ("faults.ds<i>.health", "gauge"),
    ("faults.events", "counter"),
    ("faults.log", "event_log"),
    ("guard.breaker.state", "gauge"),
    ("guard.breaker.trips", "counter"),
    ("guard.budget.blocked", "counter"),
    ("guard.budget.bytes", "gauge"),
    ("guard.budget.paced", "counter"),
    ("guard.budget.peak_bytes", "gauge"),
    ("guard.budget.shed_plan", "counter"),
    ("guard.budget.shed_store", "counter"),
    ("guard.j.hit_rate", "timeseries"),
    ("guard.j.speedup", "timeseries"),
    ("guard.log", "event_log"),
    ("guard.transitions", "counter"),
    ("guard.watchdog.deadlocks", "counter"),
    ("guard.watchdog.reports", "counter"),
    ("pec.j.cycles", "counter"),
    ("pec.j.deadline_stops", "counter"),
    ("pec.j.fault_stops", "counter"),
    ("pec.j.misprefetch_ratio", "timeseries"),
]

#: label -> (strategy, faults + guard?, metric families, snapshot sha256)
RUNS = {
    "vanilla": (
        "vanilla",
        False,
        _PLAIN_FAMILIES,
        "302b085cc460ea7c416d62c320700fd041ee05401acbf1f32afb46ba6063f56b",
    ),
    "collective": (
        "collective",
        False,
        _PLAIN_FAMILIES,
        "88c65023be1cd70a60dfaf0662e50d09354de9a4f630460bc643a4ae51f081c9",
    ),
    "dualpar-forced-crash-guard": (
        "dualpar-forced",
        True,
        _PLAIN_FAMILIES + _DUALPAR_GUARD_FAULT_FAMILIES,
        "6cac7fa7ffc05ef657ae1f19f5024a451743a27816346d1d3b3a713959b6ed70",
    ),
}


def _snapshot(strategy: str, faults: bool) -> dict:
    kw = {}
    if faults:
        plan = FaultPlan.load(REPO / "examples" / "faultplans" / "crash_recover.json")
        kw = dict(fault_plan=plan, guard=True)
    result = run_experiment(
        [JobSpec("j", 4, MpiIoTest(file_size=2 * 1024 * 1024), strategy=strategy)],
        cluster_spec=paper_spec(n_compute_nodes=4),
        observe=Observability(),
        **kw,
    )
    return result.metrics


def _expand(families) -> list[tuple[str, str]]:
    names = []
    for family, kind in families:
        if "<i>" in family:
            names.extend((family.replace("<i>", str(i)), kind) for i in range(N_SERVERS))
        else:
            names.append((family, kind))
    return sorted(names)


@pytest.fixture(scope="module")
def snapshots() -> dict:
    return {label: _snapshot(strategy, faults) for label, (strategy, faults, _, _) in RUNS.items()}


@pytest.mark.parametrize("label", sorted(RUNS))
def test_snapshot_names_and_kinds(snapshots, label):
    snap = snapshots[label]
    got = sorted((name, kind) for section, kind in _KINDS.items() for name in snap[section])
    assert got == _expand(RUNS[label][2])


@pytest.mark.parametrize("label", sorted(RUNS))
def test_snapshot_bytes_match_pinned_digest(snapshots, label):
    here = "%d.%d" % sys.version_info[:2]
    if here != PINNED_PYTHON:
        pytest.skip(
            f"snapshot digests are pinned on Python {PINNED_PYTHON}; running "
            f"Python {here}: float results may round differently"
        )
    text = json.dumps(snapshots[label], indent=2, sort_keys=True) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == RUNS[label][3]
