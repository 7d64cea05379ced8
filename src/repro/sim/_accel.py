"""Build-on-first-use loader for the optional C event-kernel accelerator.

``load()`` returns the compiled :mod:`repro.sim._cq` extension module, or
``None`` when it cannot be provided -- no compiler, build failure, import
failure, or ``REPRO_SIM_ACCEL=0``.  Callers must treat ``None`` as "use
the pure-Python implementations"; nothing in the accelerator is required
for correctness.

The shared object is built next to this file (inside the package, where
it is importable as ``repro.sim._cq``) and is ignored by git.  The build
is cheap (~1s, a single translation unit), happens at most once per
source change (mtime staleness check), and is safe under concurrent
test workers: each builder compiles to a unique temporary name and
atomically ``os.replace``-s it into place.
"""

from __future__ import annotations

import importlib
import os
import subprocess
import sys
import sysconfig
from types import ModuleType
from typing import Optional

_API_VERSION = 4
_cached: Optional[ModuleType] = None
_attempted = False


def _so_path() -> str:
    suffix = sysconfig.get_config_var("EXT_SUFFIX") or ".so"
    return os.path.join(os.path.dirname(__file__), "_cq" + suffix)


def _build(src: str, out: str) -> bool:
    cc = os.environ.get("CC", "cc")
    include = sysconfig.get_path("include")
    tmp = out + f".tmp.{os.getpid()}"
    cmd = [cc, "-O2", "-fPIC", "-shared", f"-I{include}", src, "-o", tmp]
    try:
        proc = subprocess.run(
            cmd,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            timeout=120,
            check=False,
        )
        if proc.returncode != 0:
            return False
        os.replace(tmp, out)
        return True
    except (OSError, subprocess.SubprocessError):
        return False
    finally:
        if os.path.exists(tmp):  # pragma: no cover - failed-build cleanup
            try:
                os.unlink(tmp)
            except OSError:
                pass


def load() -> Optional[ModuleType]:
    """Return the ``_cq`` extension module, building it if necessary."""
    global _cached, _attempted
    if _attempted:
        return _cached
    _attempted = True
    if os.environ.get("REPRO_SIM_ACCEL", "1") == "0":
        return None
    src = os.path.join(os.path.dirname(__file__), "_cq.c")
    out = _so_path()
    try:
        stale = not os.path.exists(out) or (
            os.path.exists(src) and os.path.getmtime(src) > os.path.getmtime(out)
        )
        if stale and (not os.path.exists(src) or not _build(src, out)):
            return None
        mod = importlib.import_module("repro.sim._cq")
        if getattr(mod, "API_VERSION", None) != _API_VERSION:
            # Stale binary from an older source revision: rebuild once.
            if not os.path.exists(src) or not _build(src, out):
                return None
            mod = importlib.reload(mod)
            if getattr(mod, "API_VERSION", None) != _API_VERSION:
                return None
        _cached = mod
        return mod
    except Exception:  # noqa: BLE001 - any failure means "no accelerator"
        return None


def _reset_for_tests() -> None:
    """Forget the cached module so tests can exercise load() again."""
    global _cached, _attempted
    _cached = None
    _attempted = False


if sys.platform == "win32":  # pragma: no cover - POSIX container target
    # MSVC needs a different driver invocation; not worth supporting here.
    def load() -> Optional[ModuleType]:  # noqa: F811
        return None
