"""Simulation processes built per seed-0 pass of each benchmark workload.

Every :class:`repro.sim.Process` costs a constructor, an URGENT
``_Initialize`` push and a generator frame, so the number a pass builds
is the model's per-event overhead in one figure.  This script runs the
seed-0 cells of each cell workload once, in the order
``benchmarks/suite/run.py`` runs them, counts ``Simulator.process``
calls and prints every name, digits folded to ``*`` (so
``agg3-noncontig`` and ``agg7-noncontig`` count as ``agg*-noncontig``).

    python benchmarks/process_counts.py          # make proc-counts

Counts are a pure function of the model, identical on both kernels and
on every host.
"""

from __future__ import annotations

import re
import sys
from collections import Counter
from pathlib import Path

HERE = str(Path(__file__).resolve().parent)
if HERE not in sys.path:
    sys.path.insert(0, HERE)
from cell_digests import cell_digest_of, load_cells  # noqa: E402  (puts src/ on sys.path)

from repro.sim import Simulator  # noqa: E402

_DIGITS = re.compile(r"\d+")


def count_processes(workload: str, smoke: bool = False) -> Counter:
    """``{folded name: processes built}`` over one seed-0 pass of ``workload``."""
    cells = load_cells()
    counts: Counter = Counter()
    spawn = Simulator.process

    def counting(sim, gen, name=None, daemon=False):
        counts[_DIGITS.sub("*", name or getattr(gen, "__name__", "process"))] += 1
        return spawn(sim, gen, name=name, daemon=daemon)

    Simulator.process = counting  # type: ignore[method-assign]
    try:
        for cell in cells.workload_cells(workload, 0, smoke):
            cell_digest_of(cells, cell.spec)
    finally:
        Simulator.process = spawn  # type: ignore[method-assign]
    return counts


def main() -> int:
    for workload in load_cells().CELL_WORKLOADS:
        counts = count_processes(workload)
        print(f"{workload}: {sum(counts.values()):,} processes")
        for name, n in counts.most_common():
            print(f"  {n:>9,}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
