"""Public-API integrity: every package imports, __all__ resolves, and
public items carry docstrings."""

import importlib
import inspect

import pytest

MODULES = [
    "repro",
    "repro.sim",
    "repro.sim.core",
    "repro.sim.resources",
    "repro.sim.sync",
    "repro.disk",
    "repro.disk.geometry",
    "repro.disk.seek",
    "repro.disk.drive",
    "repro.disk.raid",
    "repro.disk.stats",
    "repro.iosched",
    "repro.iosched.base",
    "repro.iosched.squeue",
    "repro.iosched.request",
    "repro.iosched.blocklayer",
    "repro.iosched.noop",
    "repro.iosched.deadline",
    "repro.iosched.cfq",
    "repro.iosched.anticipatory",
    "repro.net",
    "repro.net.ethernet",
    "repro.pfs",
    "repro.pfs.layout",
    "repro.pfs.filesystem",
    "repro.pfs.dataserver",
    "repro.pfs.metaserver",
    "repro.pfs.client",
    "repro.pfs.pagecache",
    "repro.pfs.writeback",
    "repro.cache",
    "repro.cache.chunk",
    "repro.cache.memcache",
    "repro.cache.quota",
    "repro.mpi",
    "repro.mpi.ops",
    "repro.mpi.opstream",
    "repro.mpi.runtime",
    "repro.mpi.datatypes",
    "repro.mpiio",
    "repro.mpiio.engine",
    "repro.mpiio.collective",
    "repro.mpiio.prefetch",
    "repro.mpiio.datasieve",
    "repro.mpiio.listio",
    "repro.core",
    "repro.core.config",
    "repro.core.metrics",
    "repro.core.emc",
    "repro.core.pec",
    "repro.core.crm",
    "repro.core.engine",
    "repro.core.system",
    "repro.workloads",
    "repro.cluster",
    "repro.cluster.spec",
    "repro.cluster.builder",
    "repro.runner",
    "repro.runner.experiment",
    "repro.runner.strategies",
    "repro.runner.results",
    "repro.runner.calibrate",
    "repro.service",
    "repro.service.schemas",
    "repro.service.catalog",
    "repro.service.worker",
    "repro.service.coordinator",
    "repro.service.client",
    "repro.trace",
    "repro.trace.blktrace",
    "repro.trace.timeline",
    "repro.analysis",
    "repro.cli",
]


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
    assert len(documented) == 4
