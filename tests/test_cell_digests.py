"""Smoke-size paper cells against their committed golden digests.

``benchmarks/results/cells.digests.json`` pins the seed-0 digest of
every benchmark-suite cell; this test recomputes the smoke-size cells
(under a second) and requires each to match.  ``make digests`` checks
the full-size cells too.  A deliberate model change re-pins the file
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


def test_golden_file_covers_every_full_cell():
    digests = _load_digests_module()
    golden = digests.load_golden()
    cells = digests.load_cells()
    keys = {c.key for c in digests.distinct_cells(cells, smoke=False)}
    assert set(golden["full"]) == keys
    assert set(golden["smoke"]) == keys
