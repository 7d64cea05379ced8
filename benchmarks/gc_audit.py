"""What Python's cyclic garbage collector costs the benchmark suite's cells.

Every seed-0 cell of the three cell workloads (``vanilla-cells``,
``collective-cells``, ``dualpar-cells``) runs twice, each time in a
forked child of this process, as ``benchmarks/suite/run.py`` runs a
sample (so every cell starts from the same heap):

- with the collector as :func:`repro.run_experiment` sets it: the
  gen-0/1/2 collections of the run and the host seconds spent in them,
  from ``gc.callbacks``, against the run's wall seconds;
- with the collector off and ``gc.DEBUG_SAVEALL``: the objects the run
  left unreachable -- cyclic garbage only the collector frees -- by
  type, counted while the run's result is still held.

    python benchmarks/gc_audit.py                # make gc-audit

Exit status 1 when any cell leaves more than :data:`CYCLIC_BOUND`
unreachable objects: the kernel's per-message and per-process objects
(resource grants, finished processes, fired conditions) must die by
refcount.
"""

from __future__ import annotations

import gc
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Any, Callable

HERE = Path(__file__).resolve().parent
SUITE = HERE / "suite"
for _path in (str(HERE), str(SUITE)):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from cell_digests import load_cells  # noqa: E402  (puts src/ on sys.path)
from run import in_child  # noqa: E402

from repro.runner import run_spec  # noqa: E402

#: Most unreachable objects one nominal cell may leave behind.
CYCLIC_BOUND = 100


def cyclic_garbage(run: Callable[[], Any]) -> Counter:
    """``{type name: count}`` of the objects ``run()`` left unreachable.

    The collector is off while ``run`` runs; one full collection after
    it, with ``run``'s return value still held, finds what only the
    collector could have freed.  The caller's collector state is restored.
    """
    enabled, debug = gc.isenabled(), gc.get_debug()
    # Closing a collected generator runs its frame's cleanup, which can
    # leave new garbage for the next collection: collect until none is
    # left, so that only ``run``'s garbage is counted.
    while gc.collect():
        pass
    gc.garbage.clear()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        result = run()
        gc.collect()
        counts = Counter(type(o).__name__ for o in gc.garbage)
        del result
    finally:
        gc.set_debug(debug)
        gc.garbage.clear()
        if enabled:
            gc.enable()
    return counts


def collector_load(run: Callable[[], Any]) -> dict:
    """Collections per generation and host seconds in the collector while
    ``run()`` runs, with its wall seconds."""
    counts = [0, 0, 0]
    gc_s = 0.0
    started = 0.0

    def on_collect(phase: str, info: dict) -> None:
        nonlocal gc_s, started
        if phase == "start":
            started = time.perf_counter()
        else:
            gc_s += time.perf_counter() - started
            counts[info["generation"]] += 1

    gc.collect()
    gc.callbacks.append(on_collect)
    t0 = time.perf_counter()
    try:
        run()
    finally:
        wall_s = time.perf_counter() - t0
        gc.callbacks.remove(on_collect)
    return {"gen": counts, "gc_s": gc_s, "wall_s": wall_s}


def audit(workload: str) -> tuple[list[str], list[str]]:
    """Report lines for one workload's seed-0 cells, and the keys of the
    cells over the bound."""
    cells = load_cells()
    lines, over = [], []
    total = {"gen": [0, 0, 0], "gc_s": 0.0, "wall_s": 0.0}
    for cell in cells.workload_cells(workload, 0):
        load = in_child(lambda: collector_load(lambda: run_spec(cell.spec)))
        garbage = in_child(lambda: dict(cyclic_garbage(lambda: run_spec(cell.spec))))
        n = sum(garbage.values())
        if n > CYCLIC_BOUND:
            over.append(cell.key)
        top = ", ".join(f"{k} {v:,}" for k, v in Counter(garbage).most_common(4))
        lines.append(
            f"  {cell.key:<34} {'/'.join(map(str, load['gen'])):>12} "
            f"{load['gc_s']:7.3f} s {load['wall_s']:7.3f} s {n:>9,}  {top}"
        )
        total["gen"] = [a + b for a, b in zip(total["gen"], load["gen"])]
        total["gc_s"] += load["gc_s"]
        total["wall_s"] += load["wall_s"]
    share = total["gc_s"] / total["wall_s"] if total["wall_s"] else 0.0
    lines.append(
        f"  {'pass':<34} {'/'.join(map(str, total['gen'])):>12} "
        f"{total['gc_s']:7.3f} s {total['wall_s']:7.3f} s  ({share:.1%} in the collector)"
    )
    return lines, over


def main() -> int:
    over: list[str] = []
    for workload in load_cells().CELL_WORKLOADS:
        print(f"{workload}: {'cell':<32} {'gen 0/1/2':>12} {'gc':>9} {'wall':>9} "
              f"{'cyclic':>9}  by type")
        lines, bad = audit(workload)
        print("\n".join(lines), flush=True)
        over += bad
    if over:
        print(f"FAIL: {len(over)} cells leave more than {CYCLIC_BOUND} unreachable "
              f"objects: {', '.join(over)}")
        return 1
    print(f"every cell leaves at most {CYCLIC_BOUND} unreachable objects")
    return 0


if __name__ == "__main__":
    sys.exit(main())
