"""The benchmark tracer's boundary table still names real functions.

``benchmarks/suite/layers.py`` charges host time to a layer by wrapping
the entries of its ``BOUNDARY`` table by name.  It skips an attribute it
cannot find without a word: a renamed ``GlobalCache.multiget`` would be
charged to its caller's layer (``core``) in every ``--trace`` run.  A
missing module or owner class instead fails every traced run.  The table
is read here, never edited.
"""

from __future__ import annotations

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

LAYERS_PY = Path(__file__).resolve().parent.parent / "benchmarks" / "suite" / "layers.py"


def _layers():
    spec = importlib.util.spec_from_file_location("_suite_layers", LAYERS_PY)
    assert spec is not None and spec.loader is not None
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _boundary() -> tuple[str, ...]:
    return _layers().BOUNDARY


_CHECKED = [
    entry
    for entry in _boundary()
    if entry.startswith(("repro.cache.", "repro.core."))
]


def test_boundary_lists_the_cache_and_core_entry_points():
    assert "repro.cache.memcache:GlobalCache.multiget" in _CHECKED
    assert "repro.cache.memcache:GlobalCache.multiput" in _CHECKED
    assert any(entry.startswith("repro.core.") for entry in _CHECKED)


@pytest.mark.parametrize("entry", _CHECKED)
def test_boundary_entry_resolves_to_a_function(entry):
    module_name, qualname = entry.split(":")
    module = importlib.import_module(module_name)
    owner, _, attr = qualname.rpartition(".")
    if owner:
        owner_obj = getattr(module, owner.rstrip("+"))
        fn = owner_obj.__dict__.get(attr)
    else:
        fn = getattr(module, attr, None)
    assert inspect.isfunction(fn), f"{entry} does not resolve to a function"


def test_every_boundary_module_and_owner_class_resolves():
    # _targets() skips a missing attribute but imports every module and
    # looks up every owner class, as Tracer.install() does: a module or
    # class gone from repro fails every --trace run.
    targets = list(_layers()._targets())
    assert targets
    assert all(callable(fn) for _owner, _attr, fn, _layer in targets)
