"""What a fresh interpreter pays before it runs anything.

Every ``repro`` command, every service start and every cell workload's
``setup_s`` begins with a cold start.  This script runs :data:`REPEATS`
fresh interpreters for each of three paths:

- ``probe``: ``import repro`` and building the paper cluster, the work
  ``benchmarks/suite/run.py``'s set-up probe times (without its speed
  probe);
- ``run_spec``: a smoke vanilla cell through :func:`repro.runner.run_spec`;
- ``--help``: ``python -m repro --help``.

For each it prints the median host seconds of the whole child (start-up
included), the modules loaded at the end (``repro`` ones and in all),
whether numpy is loaded, and the child's peak RSS.

    python benchmarks/cold_start.py              # make cold-start

Exit status 1 when numpy or a module of :data:`DEFERRED` loads on the
probe path: a nominal run executes none of them, so ``import repro``
must not load them.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Fresh interpreters per path; the suite times 9 cold starts per run too.
REPEATS = 9

#: Modules no nominal run executes: numpy (the numpy-built workload
#: patterns, timeline and trace reports), fault injection and its codec,
#: observed runs' span tracing and export, and disk traces.
DEFERRED = (
    "numpy",
    "repro.codec",
    "repro.faults",
    "repro.faults.injector",
    "repro.faults.plan",
    "repro.obs.export",
    "repro.obs.tracing",
    "repro.trace.blktrace",
)

PATHS = {
    "probe": """
import repro
from repro.cluster import build_cluster, paper_spec
build_cluster(paper_spec())
""",
    "run_spec": """
from repro import ExperimentSpec, JobSpec, MpiIoTest
from repro.cluster import paper_spec
from repro.runner import run_spec
run_spec(ExperimentSpec([JobSpec("m", 8, MpiIoTest(file_size=4 << 20))],
                        cluster_spec=paper_spec(n_compute_nodes=8)))
""",
    "--help": """
import contextlib, io, runpy
sys.argv = ["repro", "--help"]
with contextlib.suppress(SystemExit), contextlib.redirect_stdout(io.StringIO()):
    runpy.run_module("repro", run_name="__main__", alter_sys=True)
""",
}

#: Appended to each path: what is loaded once it is done, then its peak RSS.
REPORT = f"""
modules = list(sys.modules)
import json, resource
print(json.dumps({{
    "repro": sum(1 for m in modules if m == "repro" or m.startswith("repro.")),
    "total": len(modules),
    "deferred": [m for m in {DEFERRED!r} if m in modules],
    "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
}}))
"""


def cold_start(code: str) -> dict:
    """One fresh interpreter running ``code``: its host seconds and report."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    t0 = time.perf_counter()
    child = subprocess.run([sys.executable, "-c", "import sys\n" + code + REPORT], cwd=ROOT,
                           env=env, check=True, capture_output=True, text=True)
    out = json.loads(child.stdout.splitlines()[-1])
    out["host_s"] = time.perf_counter() - t0
    return out


def main() -> int:
    loaded: set[str] = set()
    print(f"{'path':10s} {'host s':>8s} {'repro':>6s} {'modules':>8s} {'numpy':>6s} "
          f"{'rss MB':>7s}  deferred loaded")
    for name, code in PATHS.items():
        runs = [cold_start(code) for _ in range(REPEATS)]
        last = runs[-1]
        deferred = last["deferred"]
        print(f"{name:10s} {statistics.median(r['host_s'] for r in runs):8.3f} "
              f"{last['repro']:6d} {last['total']:8d} {str('numpy' in deferred):>6s} "
              f"{statistics.median(r['rss_mb'] for r in runs):7.1f}  "
              f"{', '.join(deferred) or '-'}")
        if name == "probe":
            loaded = {m for r in runs for m in r["deferred"]}
    if loaded:
        print(f"cold_start: the probe path loads {', '.join(sorted(loaded))}, which no nominal "
              "run executes", file=sys.stderr)
    return 1 if loaded else 0


if __name__ == "__main__":
    sys.exit(main())
