"""A/B verdicts from alternating parent/change benchmark runs.

Give it the ``--out`` files of N parent runs and N change runs, made in
alternating order with the same seeds and settings; run i of the parent
is paired with run i of the change::

    python3 benchmarks/suite/compare.py --parent p1.json ... --change c1.json ...

For every workload and metric it prints each side's median and quartiles
and a verdict (choosing-metrics, sections 6 and 8):

- improved   -- the change wins at least 9 of 10 pairs (ties count for
  neither) and the medians differ by more than the parent's IQR;
- worse      -- the change's median is worse than the parent's by more
  than the metric's bound (per-layer metrics: the parent wins 9 of 10
  pairs by more than its IQR);
- unresolved -- the parent's own spread is wider than the bound, and not
  every change run beats every parent run;
- unchanged  -- otherwise.

Exits 1 when any metric is worse.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

sys.path.insert(0, str(Path(__file__).resolve().parent))

from stats import END_TO_END, PER_LAYER, quartiles  # noqa: E402

CATALOGUE = {m.name: m for m in (*END_TO_END, *PER_LAYER)}


def classify(
    parent: Sequence[float], change: Sequence[float], better: str, bound: Optional[float]
) -> str:
    """Verdict for one metric from paired runs (see the module doc)."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same, non-zero number of parent and change runs")
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    losses = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    iqr = p3 - p1
    gain = sign * (pm - cm)
    n = len(parent)
    if wins >= 0.9 * n and gain > iqr:
        return "improved"
    if bound is None:
        return "worse" if losses >= 0.9 * n and -gain > iqr else "unchanged"
    if -gain > bound * abs(pm):
        return "worse"
    clear_win = all(sign * (p - c) > 0 for p in parent for c in change)
    if iqr > bound * abs(pm) and not clear_win:
        return "unresolved"
    return "unchanged"


def _load(paths: Sequence[Path]) -> list[dict]:
    return [json.loads(Path(p).read_text())["workloads"] for p in paths]


def main(argv: Optional[list[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", nargs="+", type=Path, required=True)
    ap.add_argument("--change", nargs="+", type=Path, required=True)
    args = ap.parse_args(argv)
    if len(args.parent) != len(args.change):
        ap.error("give as many --change runs as --parent runs")
    parent, change = _load(args.parent), _load(args.change)
    if len(parent) < 10:
        print(f"warning: {len(parent)} pairs; a gain needs at least 10", file=sys.stderr)

    workloads = sorted(set.intersection(*(set(r) for r in parent + change)))
    any_worse = False
    print(f"{'workload':<17} {'metric':<26} {'parent med [q1, q3]':>30} "
          f"{'change med [q1, q3]':>30} {'wins':>6}  verdict")
    for w in workloads:
        names = [n for n in parent[0][w]["metrics"] if n in CATALOGUE]
        for name in names:
            p = [r[w]["metrics"][name] for r in parent if name in r[w]["metrics"]]
            c = [r[w]["metrics"][name] for r in change if name in r[w]["metrics"]]
            if len(p) != len(parent) or len(c) != len(change):
                continue
            metric = CATALOGUE[name]
            verdict = classify(p, c, metric.better, metric.bound)
            any_worse |= verdict == "worse"
            sign = 1.0 if metric.better == "lower" else -1.0
            wins = sum(sign * (a - b) > 0 for a, b in zip(p, c))
            pq, cq = quartiles(p), quartiles(c)
            pcol = f"{pq[1]:.5g} [{pq[0]:.4g}, {pq[2]:.4g}]"
            ccol = f"{cq[1]:.5g} [{cq[0]:.4g}, {cq[2]:.4g}]"
            print(f"{w:<17} {name:<26} {pcol:>30} {ccol:>30} "
                  f"{wins:>3}/{len(p):<3} {verdict}")
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main())
