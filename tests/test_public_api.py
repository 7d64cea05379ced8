"""Public-API integrity: every package imports, __all__ resolves, and
public items carry docstrings."""

import importlib
import importlib.util
import inspect
import pkgutil

import pytest


def _package_modules() -> list[str]:
    """Every Python module of the ``repro`` package, found by walking it,
    so adding or deleting a module cannot slip past these checks (the
    compiled ``_cq`` extension is skipped)."""
    import repro

    names = ["repro"] + [m.name for m in pkgutil.walk_packages(repro.__path__, "repro.")]
    return [n for n in names if importlib.util.find_spec(n).origin.endswith(".py")]


MODULES = _package_modules()


@pytest.mark.parametrize("name", MODULES)
def test_module_imports_and_all_resolves(name):
    mod = importlib.import_module(name)
    assert mod.__doc__, f"{name} lacks a module docstring"
    for sym in getattr(mod, "__all__", []):
        assert hasattr(mod, sym), f"{name}.__all__ names missing symbol {sym!r}"


@pytest.mark.parametrize("name", MODULES)
def test_public_classes_and_functions_documented(name):
    mod = importlib.import_module(name)
    for sym in getattr(mod, "__all__", []):
        obj = getattr(mod, sym)
        if inspect.isclass(obj) or inspect.isfunction(obj):
            if obj.__module__.startswith("repro"):
                assert obj.__doc__, f"{name}.{sym} lacks a docstring"


def test_version_string():
    import repro

    assert repro.__version__


def test_env_knobs_match_readme_environment_table():
    """Every ``REPRO_*`` variable named in the package is documented in the
    README "Environment" table, and the table lists nothing else."""
    import re
    from pathlib import Path

    root = Path(__file__).resolve().parent.parent
    used = set()
    for path in (root / "src" / "repro").rglob("*"):
        if path.suffix in (".py", ".c"):
            used |= set(re.findall(r"REPRO_[A-Z_]+", path.read_text(encoding="utf-8")))
    readme = (root / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Environment", 1)[1].split("\n## ", 1)[0]
    documented = set(re.findall(r"^\| `(REPRO_[A-Z_]+)` \|", section, re.M))
    assert used == documented
    # A new knob is a deliberate act: raise this count with the table row.
    assert len(documented) == 3
