"""The repository benchmark: paper cells and the experiment service.

Runs one or more workloads, prints every metric with its unit, checks the
outputs (PASS/FAIL lines), writes everything to
``benchmarks/out/BENCH_suite.json``, and prints one JSON object as the
last line of standard output::

    python3 benchmarks/suite/run.py [--workload W ...] [--seed N]
        [--seconds S] [--trace [0|1]] [--smoke] [--out PATH]

Workloads: vanilla-cells, collective-cells, dualpar-cells, service-mix
(default: all four, each in a fresh process).  ``--trace`` (or
``--trace 1``) reports the per-layer metrics instead of the end-to-end
ones.  End-to-end host times are given at the reference speed of
``calibrate.py``, which takes the shared host's drifting speed out of
them.  See ``benchmarks/suite/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
OUT = ROOT / "benchmarks" / "out"

if not (SRC / "repro" / "__init__.py").is_file():
    sys.exit(f"run.py: no repro package under {SRC}; run from a full checkout")
for path in (str(HERE), str(SRC)):
    if path not in sys.path:
        sys.path.insert(0, path)

# Importing repro builds its C accelerator in a fresh checkout.
import repro  # noqa: E402
from cells import (  # noqa: E402
    CELL_WORKLOADS,
    Cell,
    cell_digest,
    check_bytes,
    fig7_check,
    layer_counts,
    paper_predicates,
    sim_counts,
    workload_cells,
)
from calibrate import SpeedProbe  # noqa: E402
from layers import Tracer  # noqa: E402
from report import Report, child_env, peak_rss_mb  # noqa: E402
from service_mix import run_service_mix, setup_seconds  # noqa: E402
from stats import END_TO_END, PER_LAYER  # noqa: E402

WORKLOADS = (*CELL_WORKLOADS, "service-mix")
DEFAULT_SECONDS = 20
SETUP_REPEATS = 9
#: How the C dispatch pump defect surfaces in a cell's traceback.
PUMP_DEFECT = "Event.fail() missing 1 required positional argument"
PUMP_RETRIES = 2
#: One cold start of a cell workload: a fresh interpreter importing repro
#: and building the paper cluster under a SpeedProbe.  It reports the
#: probe's speed and the seconds the probe itself took (its import
#: included), which the parent takes off its wall time.
SETUP_CODE = """
import json, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from calibrate import SpeedProbe
probe = SpeedProbe()
own = time.perf_counter() - t0
with probe:
    from repro.cluster import build_cluster, paper_spec
    build_cluster(paper_spec())
print(json.dumps({"speed": probe.speed, "probe_s": own + probe.slices_wall_s}))
"""


def cold_start_seconds(repeats: int) -> list[float]:
    """Seconds at reference speed of fresh interpreters importing repro
    (and its C accelerator) and building the paper cluster: the child's
    whole start-up, scaled by the speed its probe measured."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        child = subprocess.run([sys.executable, "-c", SETUP_CODE, str(HERE)], cwd=ROOT,
                               env=child_env(ROOT), check=True, capture_output=True, text=True)
        wall = time.perf_counter() - t0
        probe = json.loads(child.stdout)
        times.append((wall - probe["probe_s"]) * probe["speed"])
    return times


def loop_events_per_s(n_procs: int = 16, n_iters: int = 20_000, repeats: int = 3) -> float:
    """The bare kernel loop: ``n_procs`` processes each yielding
    ``n_iters`` one-second timeouts; median events per host second."""
    from repro.sim.core import Simulator

    def body(sim: Simulator):
        timeout = sim.timeout
        for _ in range(n_iters):
            yield timeout(1.0)

    rates = []
    for _ in range(repeats):
        sim = Simulator()
        for _ in range(n_procs):
            sim.process(body(sim))
        t0 = time.perf_counter()
        sim.run()
        rates.append(n_procs * n_iters / (time.perf_counter() - t0))
    return statistics.median(rates)


def in_child(fn: Callable[[], dict]) -> dict:
    """Run ``fn`` in a forked copy of this process and return its JSON-able
    result.  Every cell then starts from the same heap, whatever ran
    before it, and hands its memory back when it exits."""
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child never returns into the caller's code
        try:
            os.close(read_fd)
            try:
                payload = {"value": fn()}
            except BaseException:  # noqa: BLE001 - reported to the parent
                payload = {"error": traceback.format_exc()}
            with os.fdopen(write_fd, "w") as pipe:
                json.dump(payload, pipe)
        finally:
            os._exit(0)
    os.close(write_fd)
    with os.fdopen(read_fd) as pipe:
        text = pipe.read()
    _, status = os.waitpid(pid, 0)
    payload = json.loads(text) if text else {"error": f"cell process died ({status=})"}
    if "error" in payload:
        raise RuntimeError(payload["error"])
    return payload["value"]


def _sample(cell: Cell, first: bool, traced: bool) -> dict:
    """One timed run of ``cell`` (in a forked child); the first run of a
    cell also reports what the output checks need.  Untraced runs are
    timed under a :class:`SpeedProbe`, traced ones by the clock alone."""
    tracer = Tracer() if traced else None
    if tracer is not None:
        tracer.install()
    spec = cell.spec
    probe = None if traced else SpeedProbe()
    t0 = time.perf_counter()
    with probe or contextlib.nullcontext():
        result = repro.run_experiment(
            list(spec.specs),
            cluster_spec=spec.cluster_spec,
            dualpar_config=spec.dualpar_config,
            timeline_window_s=spec.timeline_window_s,
            limit_s=spec.limit_s,
        )
    out: dict = {"wall_s": time.perf_counter() - t0, "digest": cell_digest(result)}
    if probe is not None:
        out.update(wall_s=probe.busy_s, scaled_s=probe.scaled_s, speed=probe.speed)
    if first:
        out["rss_mb"] = peak_rss_mb()
        out["counts"] = sim_counts(result)
        out["throughput"] = result.system_throughput_mb_s
        out["bytes"] = check_bytes(spec, result)
        out["fig7"] = fig7_check(result) if cell.pattern.startswith("fig7/") else None
    if tracer is not None:
        out["self_s"], out["calls"] = dict(tracer.self_s), dict(tracer.calls)
    return out


def run_sample(report: Report, cell: Cell, first: bool, traced: bool) -> dict:
    """One sample of ``cell`` in a forked child.  A sample the C dispatch
    pump defect kills (README, "Known defects", 1) runs again, up to
    PUMP_RETRIES times, and the hit is recorded: the defect strikes about
    one cell run in a thousand at random, and counting it as a failed
    operation would make two sets of runs of the same code disagree."""
    sample = functools.partial(_sample, cell, first, traced)
    for _ in range(PUMP_RETRIES):
        try:
            return in_child(sample)
        except RuntimeError as exc:
            if PUMP_DEFECT not in str(exc):
                raise
            report.details.setdefault("pump_defect_retries", []).append(cell.key)
            print(f"[{report.workload}] NOTE {cell.key}: the C pump defect killed the "
                  "sample; running it again", file=sys.stderr)
    return in_child(sample)


def run_cells(report: Report, seed: int, seconds: float, tracer, smoke: bool) -> None:
    """Round-robin passes over the workload's cells until ``seconds`` have
    elapsed (at least one pass); with a tracer, one more pass traced."""
    cells = workload_cells(report.workload, seed, smoke)
    samples: dict[str, list[dict]] = {c.key: [] for c in cells}
    digests: dict[str, set[str]] = {c.key: set() for c in cells}
    counts: dict[str, dict] = {}
    throughput: dict[str, float] = {}
    rss: dict[str, float] = {}
    deadline = time.perf_counter() + seconds
    for n, cell in enumerate(itertools.cycle(cells)):
        if n >= len(cells) and time.perf_counter() >= deadline:
            break
        first = cell.key not in counts
        gc.collect()
        ok, out = report.run_op("cell", cell.key, lambda: run_sample(report, cell, first, False))
        if not ok:
            continue
        samples[cell.key].append({k: out[k] for k in ("wall_s", "scaled_s", "speed")})
        digests[cell.key].add(out["digest"])
        if first:
            counts[cell.key] = out["counts"]
            throughput[cell.key] = out["throughput"]
            rss[cell.key] = out["rss_mb"]
            report.check(f"{cell.key}: bytes moved equal bytes requested",
                         not out["bytes"], "; ".join(out["bytes"]))
            if cell.pattern.startswith("fig7/"):
                report.check("fig7: EMC switches after hpio joins, both jobs go "
                             "data-driven", None if smoke else out["fig7"] is None,
                             out["fig7"] or "")
    # Judges the results there are; a cell whose every run failed is
    # already counted in ``failed``.
    report.check("cells: every run of a cell gives bit-identical results",
                 all(len(d) <= 1 for d in digests.values()),
                 f"{n} runs; cells without a result: {[k for k, d in digests.items() if not d]}")

    def median_of(key: str, field: str) -> float:
        return statistics.median(s[field] for s in samples[key])

    ran = [c for c in cells if samples[c.key]]
    m = report.metrics
    m["wall_s"] = sum(median_of(c.key, "scaled_s") for c in ran)
    for op, name in (("R", "read_wall_s"), ("W", "write_wall_s")):
        m[name] = sum(median_of(c.key, "scaled_s") for c in ran if c.op == op)
    report.details["host_wall_s"] = sum(median_of(c.key, "wall_s") for c in ran)
    totals: dict[str, float] = {}
    for c in counts.values():
        for k, v in c.items():
            totals[k] = totals.get(k, 0) + v
    m.update(layer_counts(totals))
    report.details["cell_runs"] = n
    report.details["cells"] = [
        {"key": c.key, "samples": samples[c.key],
         "digest": sorted(digests[c.key]), "throughput_mb_s": throughput.get(c.key),
         "peak_rss_mb": rss.get(c.key)}
        for c in cells
    ]
    report.details["throughput"] = throughput

    if tracer is None:
        return
    traced_s = untraced_s = 0.0
    same = True
    for cell in ran:
        gc.collect()
        ok, out = report.run_op(
            "cell", cell.key + " (traced)",
            lambda: run_sample(report, cell, False, True),
        )
        if not ok:
            continue
        traced_s += out["wall_s"]
        untraced_s += median_of(cell.key, "wall_s")
        same &= out["digest"] in digests[cell.key]
        for layer, s in out["self_s"].items():
            tracer.self_s[layer] += s
        for layer, n in out["calls"].items():
            tracer.calls[layer] += n
    report.check("trace: traced cells give the untraced results", same)
    if untraced_s > 0:
        m["trace.overhead"] = traced_s / untraced_s


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> Report:
    from repro.sim import core

    report = Report(name)
    report.details["c_accelerator"] = core._CQ is not None
    tracer = Tracer() if trace else None
    budget = 0.0 if trace else seconds
    work = Path(tempfile.mkdtemp(prefix=f"suite-{name}-", dir=OUT))
    try:
        if not trace:
            repeats = 1 if smoke else SETUP_REPEATS
            setups = (setup_seconds(ROOT, work, repeats) if name == "service-mix"
                      else cold_start_seconds(repeats))
            report.metrics["setup_s"] = statistics.median(setups)
            report.details["setup_samples_s"] = setups
        if name == "service-mix":  # peak_rss_mb: the coordinator and its workers
            run_service_mix(report, ROOT, work, seed, budget, smoke, tracer)
        else:
            run_cells(report, seed, budget, tracer, smoke)
            report.metrics["peak_rss_mb"] = peak_rss_mb()
        if tracer is not None:
            report.metrics.update(tracer.metrics())
            report.metrics["sim.loop_ev_per_s"] = loop_events_per_s()
    except Exception:  # noqa: BLE001 - report the failure, keep the output
        report.fail_op("workload", name, traceback.format_exc())
        report.check(f"{name} ran to completion", False)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return report


# -- output ---------------------------------------------------------------


def selected_metrics(report: dict, trace: bool) -> dict:
    """The metrics a run reports: end-to-end untraced, per-layer traced."""
    catalogue = PER_LAYER if trace else END_TO_END
    return {
        m.name: {"value": float(report["metrics"].get(m.name, 0.0)), "unit": m.unit}
        for m in catalogue
    }


def _write_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(payload, indent=1, sort_keys=True, default=str) + "\n")
    os.replace(tmp, path)


def _run_children(args: argparse.Namespace) -> dict:
    """One fresh process per workload; returns their reports by name."""
    reports = {}
    for name in args.workload:
        out = OUT / f"BENCH_suite.{name}.json"
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(int(args.trace)), "--out", str(out)]
        if args.smoke:
            cmd.append("--smoke")
        out.unlink(missing_ok=True)
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as child:
            held = None
            for line in child.stdout:  # type: ignore[union-attr]
                if held is not None:
                    print(held, end="", flush=True)
                held = line  # the child's result line is not echoed
        try:
            reports[name] = json.loads(out.read_text())["workloads"][name]
            out.unlink()
        except (OSError, ValueError, KeyError) as exc:
            failed = Report(name)
            failed.fail_op("workload", name, f"exit {child.returncode}: {exc!r}")
            failed.check(f"{name} ran to completion", False)
            reports[name] = failed.to_dict()
    return reports


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                    help="measuring time per workload (at least one pass over the cells)")
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                    help="report per-layer metrics from a traced pass")
    ap.add_argument("--smoke", action="store_true", help="tiny cells, for harness tests")
    ap.add_argument("--out", type=Path, default=OUT / "BENCH_suite.json")
    args = ap.parse_args(argv)
    if args.workload == ["service-mix"] and os.environ.get("REPRO_SIM_ACCEL") != "0":
        # service-mix runs on the pure-Python kernel in every process it
        # starts (service_mix.py; README, "Known defects").
        rest = sys.argv[1:] if argv is None else argv
        os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve()), *rest],
                  dict(os.environ, REPRO_SIM_ACCEL="0"))
    trace = bool(args.trace)
    OUT.mkdir(parents=True, exist_ok=True)
    if len(args.workload) == 1:
        name = args.workload[0]
        reports = {name: run_workload(name, args.seed, args.seconds, trace, args.smoke).to_dict()}
    else:
        reports = _run_children(args)

    shape = Report("paper-shape")
    throughput = {}
    for name, rep in reports.items():
        for key, tput in rep.get("throughput", {}).items():
            pattern, strategy = key.rsplit("/", 1)
            throughput[(pattern, strategy)] = tput
    if not args.smoke:  # tiny cells need not keep the paper's shape
        for check, verdict, detail in paper_predicates(throughput):
            if verdict is not None:
                shape.check(check, verdict, detail)

    _write_json(args.out, {
        "seed": args.seed, "seconds": args.seconds, "trace": trace, "smoke": args.smoke,
        "host": {"cpus": os.cpu_count(), "python": sys.version.split()[0]},
        "env": {k: v for k, v in os.environ.items() if k.startswith("REPRO_")},
        "workloads": reports,
        "paper_shape": shape.checks,
    })

    single = len(reports) == 1
    metrics: dict = {}
    for name, rep in reports.items():
        if single:  # a multi-workload run has echoed each child's table
            print(f"\n{name}: {rep['attempted']} operations, {rep['failed']} failed")
        for key, value in selected_metrics(rep, trace).items():
            if single:
                print(f"  {key:<28} {value['value']:>14.6g} {value['unit']}")
            metrics[key if single else f"{name}.{key}"] = value
    print(json.dumps({
        "correct": shape.correct and all(rep["correct"] for rep in reports.values()),
        "attempted": sum(rep["attempted"] for rep in reports.values()),
        "failed": sum(rep["failed"] for rep in reports.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
