"""Golden seed-0 digests of the benchmark suite's paper cells.

Every cell the suite runs (``benchmarks/suite/cells.py``) is a pure
function of its spec, so its :func:`cell_digest` -- the sha256 of the
canonical JSON of its whole result -- pins every simulated observable.
``benchmarks/results/cells.digests.json`` holds the seed-0 digest of
each distinct cell, full size and smoke size, and of every smoke cell
under each fault plan in ``examples/faultplans/`` (the ``faulted``
section: crashes, timeouts, retries and exactly-once write commits,
which no nominal cell reaches).  The faulted section adds two striped
cells, since no suite cell makes a call that spans stripes: a vanilla
IOR whose 256 KB calls each split into four stripe pieces, read and
write; under ``crash_recover`` they time out and retry, as the DualPar
cells' list batches do.  A faulted digest also covers what the
result does not record itself: each client's timeout, retry and
failover counts and each server's request and dropped-request counts
and write commit log.  The ``figures`` section pins every figure, table
and ablation cell of the paper-cell table (``benchmarks/paper_cells.py``)
at smoke scale, among them the paths no suite cell takes: the
``prefetch`` strategy (Fig 1), server write-back and the mis-prefetch
lockout (Table III).  A change meant to leave simulated results alone
must leave them all equal; a deliberate model change re-pins the file
(``--write``) and names every cell it changed.

The digests hash result floats bit for bit, and the model's float
arithmetic can round differently across interpreter versions (from
Python 3.12, ``sum()`` of floats is compensated), so the file records
the Python major.minor it was pinned with and is checked only under
that version; any other interpreter skips the check and says so.

    python benchmarks/cell_digests.py            # check all cells (make digests)
    python benchmarks/cell_digests.py --smoke    # smoke, faulted and figure cells only
    python benchmarks/cell_digests.py --write    # re-pin the file (all sections)

Exit status 0 when every checked digest matches or the check is skipped,
1 otherwise.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import importlib.util
import json
import sys
import time
from pathlib import Path
from types import ModuleType

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "benchmarks" / "results" / "cells.digests.json"
CELLS_PY = ROOT / "benchmarks" / "suite" / "cells.py"
PLANS = ROOT / "examples" / "faultplans"

for _path in (ROOT / "src", ROOT / "benchmarks"):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

import paper_cells  # noqa: E402
from repro import ExperimentSpec, IorMpiIo, JobSpec  # noqa: E402
from repro.cluster import paper_spec  # noqa: E402
from repro.faults import FaultPlan  # noqa: E402
from repro.runner import run_spec  # noqa: E402
from repro.service.catalog import canonical_json  # noqa: E402


def load_cells() -> ModuleType:
    """The suite's cell table, loaded from its file under a private name
    (the suite directory is not a package)."""
    spec = importlib.util.spec_from_file_location("_suite_cells", CELLS_PY)
    assert spec is not None and spec.loader is not None
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod  # dataclasses resolve the module by name
    spec.loader.exec_module(mod)
    return mod


def distinct_cells(cells: ModuleType, smoke: bool) -> list:
    """Every distinct seed-0 cell of the cell workloads, in table order."""
    seen: dict = {}
    for workload in cells.CELL_WORKLOADS:
        for cell in cells.workload_cells(workload, 0, smoke):
            seen.setdefault(cell.key, cell)
    return list(seen.values())


def striped_cells(cells: ModuleType) -> list:
    """Smoke-size vanilla IOR cells whose every call spans four stripes."""
    return [
        cells.Cell(
            f"striped/ior-mpi-io-256KB/{op}",
            "vanilla",
            op,
            ExperimentSpec(
                (
                    JobSpec(
                        "ior-mpi-io",
                        8,
                        IorMpiIo(file_size=4 * cells.MB, request_bytes=256 * 1024, op=op),
                        strategy="vanilla",
                    ),
                ),
                cluster_spec=paper_spec(n_compute_nodes=4),
                label=f"striped/{op}",
            ),
        )
        for op in "RW"
    ]


def fault_counters(result) -> dict:
    """The fault-path observables a result does not record itself."""
    cluster = result.cluster
    return {
        "clients": [[c.n_timeouts, c.n_retries, c.n_failovers] for c in cluster.clients],
        "servers": [
            [ds.n_requests, ds.n_dropped_requests, ds.commit_log]
            for ds in cluster.data_servers
        ],
    }


def cell_digest_of(cells: ModuleType, spec: ExperimentSpec, fault_plan=None) -> str:
    result = run_spec(dataclasses.replace(spec, fault_plan=fault_plan))
    digest = cells.cell_digest(result)
    if fault_plan is None:
        return digest
    payload = canonical_json({"cell": digest, "faults": fault_counters(result)})
    return hashlib.sha256(payload.encode()).hexdigest()


def fault_plans() -> dict[str, FaultPlan]:
    """``{plan file stem: plan}`` for every plan in examples/faultplans/."""
    return {p.stem: FaultPlan.load(p) for p in sorted(PLANS.glob("*.json"))}


def compute(smoke: bool, verbose: bool = False) -> dict[str, str]:
    """``{cell key: digest}`` for every distinct cell at one size."""
    cells = load_cells()
    return _digests(
        [(cell.key, cell.spec, None) for cell in distinct_cells(cells, smoke)], cells, verbose
    )


def compute_figures(verbose: bool = False) -> dict[str, str]:
    """``{row key: digest}`` for every row of the paper-cell table at
    smoke scale."""
    runs = [(key, paper_cells.spec(key, smoke=True), None) for key in paper_cells.BY_KEY]
    return _digests(runs, load_cells(), verbose)


def compute_faulted(verbose: bool = False) -> dict[str, str]:
    """``{plan/cell key: digest}`` for every smoke cell and striped cell
    under every plan."""
    cells = load_cells()
    faulted = distinct_cells(cells, smoke=True) + striped_cells(cells)
    return _digests(
        [
            (f"{name}/{cell.key}", cell.spec, plan)
            for name, plan in fault_plans().items()
            for cell in faulted
        ],
        cells,
        verbose,
    )


def _digests(runs: list, cells: ModuleType, verbose: bool) -> dict[str, str]:
    out = {}
    for key, spec, plan in runs:
        t0 = time.perf_counter()
        out[key] = cell_digest_of(cells, spec, plan)
        if verbose:
            print(f"  {key:56s} {out[key][:16]}  "
                  f"{time.perf_counter() - t0:6.2f} s", flush=True)
    return out


def load_golden() -> dict:
    """``{"python": "3.11", "smoke": {key: digest}, "full": {...},
    "faulted": {plan/key: digest}, "figures": {key: digest}}``."""
    return json.loads(GOLDEN.read_text())


def python_version() -> str:
    return "%d.%d" % sys.version_info[:2]


def skip_reason(golden: dict) -> str | None:
    """Why this interpreter cannot check ``golden``, or None if it can."""
    pinned = golden.get("python")
    if pinned == python_version():
        return None
    return (
        f"{GOLDEN.relative_to(ROOT)} is pinned on Python {pinned}, this is "
        f"Python {python_version()}: float results may round differently, "
        f"so the digests are not checked here (re-pin with --write under "
        f"this interpreter at a commit known to give the right results)"
    )


def diff(want: dict[str, str], got: dict[str, str]) -> list[str]:
    """Keys whose digest differs, or that only one side has."""
    return sorted(k for k in want.keys() | got.keys() if want.get(k) != got.get(k))


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--smoke", action="store_true",
                    help="smoke, faulted and figure cells only")
    ap.add_argument("--write", action="store_true",
                    help="re-pin the golden file (all sections)")
    args = ap.parse_args(argv)
    if not args.write:
        golden = load_golden()
        reason = skip_reason(golden)
        if reason is not None:
            print(f"SKIPPED: {reason}")
            return 0
    compute_section = {
        "smoke": lambda: compute(True, verbose=True),
        "full": lambda: compute(False, verbose=True),
        "faulted": lambda: compute_faulted(verbose=True),
        "figures": lambda: compute_figures(verbose=True),
    }
    sizes = list(compute_section)
    if args.smoke and not args.write:
        sizes.remove("full")
    got = {}
    for size in sizes:
        print(f"{size} cells:", flush=True)
        got[size] = compute_section[size]()
    if args.write:
        pinned = {"python": python_version(), **got}
        GOLDEN.write_text(json.dumps(pinned, indent=2, sort_keys=True) + "\n")
        print(f"wrote {GOLDEN.relative_to(ROOT)}")
        return 0
    bad = {size: diff(golden[size], got[size]) for size in sizes}
    for size, keys in bad.items():
        for key in keys:
            print(f"MISMATCH {size} {key}: golden {golden[size].get(key)} "
                  f"got {got[size].get(key)}")
    n = sum(len(got[s]) for s in sizes)
    n_bad = sum(len(k) for k in bad.values())
    print(f"{n - n_bad}/{n} cell digests match {GOLDEN.relative_to(ROOT)}")
    return 1 if n_bad else 0


if __name__ == "__main__":
    sys.exit(main())
