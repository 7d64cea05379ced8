"""What a fresh interpreter loads: ``import repro`` and a nominal run leave
numpy and the modules only faulted, traced or observed runs use out of
the import graph, while those features still load them on first use.

Each check runs in its own interpreter, since this test process has
loaded everything by now.
"""

from __future__ import annotations

import importlib.util
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import repro
from repro import DependentReads, JobSpec, S3asim, SyntheticPattern, run_experiment
from repro.cluster import paper_spec
from repro.trace import ThroughputTimeline

SRC = str(Path(repro.__file__).resolve().parent.parent)
ROOT = str(Path(__file__).resolve().parent.parent)


def _load_cold_start():
    spec = importlib.util.spec_from_file_location(
        "_cold_start", Path(ROOT, "benchmarks", "cold_start.py"))
    assert spec is not None and spec.loader is not None
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


#: Modules a nominal run never executes; ``import repro`` must not load them.
DEFERRED = _load_cold_start().DEFERRED


def _fresh(code: str) -> object:
    """Run ``code`` in a fresh interpreter; returns the JSON it prints last."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    out = subprocess.run([sys.executable, "-c", textwrap.dedent(code)], env=env,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.splitlines()[-1])


def test_import_and_cluster_build_load_no_deferred_module():
    loaded = _fresh(f"""
        import json, sys
        import repro
        from repro.cluster import build_cluster, paper_spec
        build_cluster(paper_spec())
        print(json.dumps([m for m in {DEFERRED!r} if m in sys.modules]))
    """)
    assert loaded == []


def test_nominal_cells_load_nothing_after_import():
    """The suite times each cell in a fork of a process that imported
    repro: a module a nominal cell loads late is compiled inside the
    timed run."""
    added = _fresh("""
        import json, sys
        import repro
        from repro import DualParConfig, JobSpec, MpiIoTest, run_experiment
        from repro.cluster import paper_spec

        before = set(sys.modules)
        for strategy, kwargs in [
            ("vanilla", {}),
            ("collective", {}),
            ("dualpar-forced", {}),
            ("dualpar", {"timeline_window_s": 0.05}),
            ("dualpar-forced", {"dualpar_config": DualParConfig(quota_bytes=64 * 1024)}),
        ]:
            run_experiment([JobSpec("m", 8, MpiIoTest(file_size=4 << 20), strategy=strategy)],
                           cluster_spec=paper_spec(n_compute_nodes=8), **kwargs)
        print(json.dumps(sorted(set(sys.modules) - before)))
    """)
    assert added == []


def _numpy_features() -> dict:
    """The runs and reports that use numpy, as JSON-able values."""
    out = {}
    for name, workload in [
        ("s3asim", S3asim(n_queries=2, db_bytes=4 << 20, out_region_bytes=1 << 20)),
        ("synthetic", SyntheticPattern(file_size=1 << 20, pattern="random")),
        ("dependent", DependentReads(file_size=2 << 20)),
    ]:
        res = run_experiment([JobSpec(name, 4, workload, strategy="dualpar-forced")],
                             cluster_spec=paper_spec(n_compute_nodes=4, trace_disks=True),
                             timeline_window_s=0.05)
        trace = res.cluster.traces[0]
        times, lbns = trace.to_arrays()
        out[name] = {
            "makespan_s": res.makespan_s,
            "series": res.timeline.series(0.05),
            "mean_mb_s": res.timeline.mean_mb_s(),
            "times": times.tolist(),
            "lbns": lbns.tolist(),
            "seek": trace.mean_seek_distance(),
        }
    timeline = ThroughputTimeline()
    timeline.record(0.1, 1 << 20)
    out["timeline"] = timeline.series(0.5, t_end=1.0)
    return out


def test_numpy_features_load_it_on_first_use():
    fresh = _fresh(f"""
        import json, sys
        sys.path.insert(0, {ROOT!r})
        from tests.test_import_graph import _numpy_features
        assert "numpy" not in sys.modules
        features = _numpy_features()
        assert "numpy" in sys.modules
        print(json.dumps(features))
    """)
    assert fresh == json.loads(json.dumps(_numpy_features()))


def test_worker_pool_loads_deferred_modules_before_it_forks():
    """Suite processes import the catalog and pay no numpy for it; a pool
    loads what its forked workers may run before the first fork, so no
    worker takes the import lock."""
    before, missing = _fresh(f"""
        import json, sys
        import repro.service.catalog
        before = "numpy" in sys.modules
        from repro.service import WorkerPool
        pool = WorkerPool(1, deliver=lambda event: None)
        pool.start()
        pool.stop(drain=False)
        print(json.dumps([before, [m for m in {DEFERRED!r} if m not in sys.modules]]))
    """)
    assert before is False
    assert missing == []
