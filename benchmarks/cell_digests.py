"""Golden seed-0 digests of the benchmark suite's paper cells.

Every cell the suite runs (``benchmarks/suite/cells.py``) is a pure
function of its spec, so its :func:`cell_digest` -- the sha256 of the
canonical JSON of its whole result -- pins every simulated observable.
``benchmarks/results/cells.digests.json`` holds the seed-0 digest of
each distinct cell, full size and smoke size.  A change meant to leave
simulated results alone must leave them all equal; a deliberate model
change re-pins the file (``--write``) and names every cell it changed.

The digests hash result floats bit for bit, and the model's float
arithmetic can round differently across interpreter versions (from
Python 3.12, ``sum()`` of floats is compensated), so the file records
the Python major.minor it was pinned with and is checked only under
that version; any other interpreter skips the check and says so.

    python benchmarks/cell_digests.py            # check all cells (make digests)
    python benchmarks/cell_digests.py --smoke    # check the smoke cells only
    python benchmarks/cell_digests.py --write    # re-pin the file (both sizes)

Exit status 0 when every checked digest matches or the check is skipped,
1 otherwise.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import sys
import time
from pathlib import Path
from types import ModuleType

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "benchmarks" / "results" / "cells.digests.json"
CELLS_PY = ROOT / "benchmarks" / "suite" / "cells.py"

if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import repro  # noqa: E402


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


def cell_digest_of(cells: ModuleType, cell) -> str:
    spec = cell.spec
    result = repro.run_experiment(
        list(spec.specs),
        cluster_spec=spec.cluster_spec,
        dualpar_config=spec.dualpar_config,
        timeline_window_s=spec.timeline_window_s,
        limit_s=spec.limit_s,
    )
    return cells.cell_digest(result)


def compute(smoke: bool, verbose: bool = False) -> dict[str, str]:
    """``{cell key: digest}`` for every distinct cell at one size."""
    cells = load_cells()
    out = {}
    for cell in distinct_cells(cells, smoke):
        t0 = time.perf_counter()
        out[cell.key] = cell_digest_of(cells, cell)
        if verbose:
            print(f"  {cell.key:40s} {out[cell.key][:16]}  "
                  f"{time.perf_counter() - t0:6.2f} s", flush=True)
    return out


def load_golden() -> dict:
    """``{"python": "3.11", "smoke": {key: digest}, "full": {...}}``."""
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
    ap.add_argument("--smoke", action="store_true", help="smoke cells only")
    ap.add_argument("--write", action="store_true",
                    help="re-pin the golden file (both sizes)")
    args = ap.parse_args(argv)
    if not args.write:
        golden = load_golden()
        reason = skip_reason(golden)
        if reason is not None:
            print(f"SKIPPED: {reason}")
            return 0
    sizes = ["smoke"] if args.smoke and not args.write else ["smoke", "full"]
    got = {}
    for size in sizes:
        print(f"{size} cells:", flush=True)
        got[size] = compute(size == "smoke", verbose=True)
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
