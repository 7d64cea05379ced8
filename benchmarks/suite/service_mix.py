"""service-mix: a closed loop of submissions against ``repro serve``.

Two client threads, one tenant each, split a seeded trace of submissions
and send them to a ``repro serve --workers 2`` subprocess, each thread
waiting for one reply before it sends the next (``submit(wait=True)``).
Half the submissions are unique small cells; the other half repeat one of
the last 32 distinct submissions, so they arrive as ``joined`` or
``cached``.  In a traced run, the first pass's unique cells are then
regenerated with ``run_experiments(jobs=2)`` into a fresh store, cold and
then warm.

The set of unique cells is fixed -- one (size, ranks) point per
(workload, strategy, op) triple -- so every seed does the same simulation
work; the seed orders the trace, places the repeats and picks the records
that are re-run for the bit-identity check.  Cells last about 0.1 s,
which makes the coordinator's and the store's own overheads visible.

One coordinator serves every pass of a run.  Pass ``k`` submits its
cells with ``limit_s = 1e6 + k`` (a simulated-time cap no cell reaches):
the fingerprints are new to the catalog while the simulations are the
same.  ``run.py`` runs this workload on the pure-Python event kernel
(``REPRO_SIM_ACCEL=0`` for the whole process tree): with the C kernel,
the dispatch-pump defect recorded in the README fails service workers'
jobs from some point on, and grid cells at random.

Host times are reported at reference speed (``calibrate.py``).  The
coordinator runs under ``probed_serve.py``, so every worker logs
calibration slices; each run's worker seconds are scaled by the slices
its own worker ran meanwhile, and a pass's client time by the ratio of
the pass's scaled to raw worker seconds.
"""

from __future__ import annotations

import os
import random
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Optional

from repro.runner import parallel
from repro.service import (
    ClusterSubmission,
    ExperimentSubmission,
    JobSubmission,
    ResultCatalog,
    ServiceClient,
    ServiceError,
    canonical_json,
    result_to_dict,
)
from calibrate import INTERVAL_S, speed_of
from probed_serve import COORDINATOR
from report import Report, child_env
from stats import percentile, tail_percentile

HERE = Path(__file__).resolve().parent

__all__ = ["ServeProcess", "make_trace", "run_service_mix", "setup_seconds"]

WORKLOADS = ("mpi-io-test", "ior-mpi-io", "hpio", "noncontig", "random", "s3asim")
STRATEGIES = ("vanilla", "collective", "dualpar")
#: (size MB, ranks) points; triple i runs COMBOS[7 * i % 12].
COMBOS = tuple((mb, ranks) for mb in (8, 16, 24, 32) for ranks in (8, 16, 32))
RECENT = 32
N_CLIENTS = 2
N_VERIFY = 5
BASE_LIMIT_S = 1e6
DRAIN_TIMEOUT_S = 10.0
READY_TIMEOUT_S = 60.0


def unique_cells(smoke: bool = False) -> list[tuple[str, str, str, int, int]]:
    """(workload, strategy, op, size MB, ranks) of every unique cell."""
    triples = [(w, s, op) for w in WORKLOADS for s in STRATEGIES for op in "RW"]
    if smoke:
        return [(w, s, op, 8, 8) for w, s, op in triples[::7]]
    return [(w, s, op, *COMBOS[7 * i % len(COMBOS)]) for i, (w, s, op) in enumerate(triples)]


def submission(
    cell: tuple, tenant: str, smoke: bool = False, limit_s: float = BASE_LIMIT_S
) -> ExperimentSubmission:
    workload, strategy, op, size_mb, ranks = cell
    return ExperimentSubmission(
        jobs=(JobSubmission("j0", workload, nprocs=ranks, size_mb=size_mb, op=op,
                            strategy=strategy),),
        cluster=(ClusterSubmission(compute_nodes=4, data_servers=3) if smoke
                 else ClusterSubmission()),
        tenant=tenant,
        label=f"{workload}/{strategy}/{op}/{size_mb}MB/{ranks}",
        limit_s=limit_s,
    )


def make_trace(seed: int, smoke: bool = False) -> list[tuple[str, tuple]]:
    """The seeded submission order: ("unique" | "repeat", cell) pairs."""
    rng = random.Random(f"service-mix/{seed}")
    cells = unique_cells(smoke)
    rng.shuffle(cells)
    kinds = ["unique"] * len(cells) + ["repeat"] * len(cells)
    rng.shuffle(kinds)
    first = kinds.index("unique")
    kinds[0], kinds[first] = kinds[first], kinds[0]
    recent: deque = deque(maxlen=RECENT)
    fresh = iter(cells)
    trace = []
    for kind in kinds:
        if kind == "unique":
            recent.append(next(fresh))
            trace.append((kind, recent[-1]))
        else:
            trace.append((kind, rng.choice(list(recent))))
    return trace


# -- the coordinator subprocess -------------------------------------------


def _group_alive(pgid: int) -> bool:
    """True while any non-zombie process is left in process group ``pgid``
    (orphans may stay zombies: not every container's init reaps them)."""
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as fh:
                fields = fh.read().rsplit(b")", 1)[1].split()
        except OSError:
            continue
        if int(fields[2]) == pgid and fields[0] not in (b"Z", b"X"):
            return True
    return False


class ServeProcess:
    """``repro serve --workers 2`` in its own process group, it and its
    workers probed for host speed (``probed_serve.py``)."""

    def __init__(self, root: Path, workdir: Path) -> None:
        workdir.mkdir(parents=True)
        self.port_file = workdir / "port"
        self.log_path = workdir / "serve.log"
        self.speed_dir = workdir / "speed"
        self.speed_dir.mkdir()
        self.catalog = ResultCatalog(workdir / "catalog")
        env = child_env(root)
        cmd = [
            sys.executable, str(HERE / "probed_serve.py"), str(self.speed_dir),
            "serve", "--workers", "2",
            "--catalog", str(self.catalog.root), "--port-file", str(self.port_file),
        ]
        with open(self.log_path, "wb") as log:
            self.spawned_at = time.perf_counter()
            self.proc = subprocess.Popen(
                cmd, cwd=root, env=env, stdout=log, stderr=subprocess.STDOUT,
                start_new_session=True,
            )

    def wait_ready(self) -> ServiceClient:
        """Block until the coordinator answers ``ping``."""
        deadline = time.monotonic() + READY_TIMEOUT_S
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(f"repro serve exited {self.proc.returncode}: {self.log()}")
            try:
                client = ServiceClient("127.0.0.1", int(self.port_file.read_text()))
                client.ping()
                return client
            except (OSError, ValueError, ServiceError):
                time.sleep(0.005)
        raise RuntimeError(f"repro serve not answering after {READY_TIMEOUT_S}s")

    def slices(self) -> dict[str, list[tuple[float, float]]]:
        """``(perf_counter time, slice seconds)`` lines by slice file:
        the coordinator's and one per worker pid (``probed_serve.py``)."""
        out = {}
        for path in self.speed_dir.iterdir():
            lines = [line.split() for line in path.read_text().splitlines()]
            out[path.name] = [(float(t), float(cpu)) for t, cpu in
                              (f for f in lines if len(f) == 2)]
        return out

    def worker_slices(self) -> dict[int, list[tuple[float, float]]]:
        """Each worker's slice lines by worker id.  The pool forks its
        workers in id order, so their pids sort the same way."""
        by_pid = {int(name): lines for name, lines in self.slices().items()
                  if name != COORDINATOR}
        return {wid: by_pid[pid] for wid, pid in enumerate(sorted(by_pid))}

    def peak_rss_mb(self) -> float:
        """Largest peak RSS (VmHWM) of the coordinator and its workers."""
        pids = [self.proc.pid]
        pids += [int(p.name) for p in self.speed_dir.iterdir() if p.name != COORDINATOR]
        peaks = []
        for pid in pids:
            try:
                status = Path(f"/proc/{pid}/status").read_text()
            except OSError:
                continue
            for line in status.splitlines():
                if line.startswith("VmHWM:"):
                    peaks.append(int(line.split()[1]) / 1024.0)
        return max(peaks, default=0.0)

    def log(self) -> str:
        try:
            return self.log_path.read_text(errors="replace")[-2000:]
        except OSError:
            return ""

    def drain(self) -> Optional[str]:
        """SIGTERM, then up to DRAIN_TIMEOUT_S for a clean exit; SIGKILL after that.
        Returns why the drain failed, or None."""
        if self.proc.poll() is not None:
            return f"coordinator died before the drain (exit {self.proc.returncode})"
        self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(DRAIN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.close()
            return f"no exit within {DRAIN_TIMEOUT_S:.0f}s of SIGTERM; killed"
        if code != 0 or "drained:" not in self.log():
            return f"exit {code} without a drain summary: {self.log()}"
        return None

    def close(self) -> None:
        """Kill whatever is left of the process group and wait for it."""
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()
        deadline = time.monotonic() + 10.0
        while _group_alive(self.proc.pid) and time.monotonic() < deadline:
            time.sleep(0.02)

    def __enter__(self) -> "ServeProcess":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


def setup_seconds(root: Path, workdir: Path, repeats: int) -> list[float]:
    """Spawn-to-first-``ping`` seconds of ``repeats`` fresh coordinators,
    less the coordinator's own calibration slices, at the speed those
    slices saw."""
    times = []
    for i in range(repeats):
        with ServeProcess(root, workdir / f"setup{i}") as serve:
            serve.wait_ready()
            ready = time.perf_counter()
            lines = serve.slices()[COORDINATOR]
        inside = [cpu for t, cpu in lines if serve.spawned_at <= t <= ready]
        times.append((ready - serve.spawned_at - sum(inside))
                     * speed_of(inside or [cpu for _, cpu in lines]))
    return times


# -- one pass ------------------------------------------------------------


@dataclass
class Sample:
    kind: str
    op: str
    latency_s: float
    outcome: str
    fingerprint: str = ""
    #: Worker wall time from the record's provenance (runs only).
    run_s: Optional[float] = None
    #: Which worker ran it, and when it was committed (unix time).
    worker_id: Optional[int] = None
    committed_unix: Optional[float] = None
    #: ``run_s`` less the probe's slices, at reference speed.
    scaled_s: Optional[float] = None
    error: str = ""


def _client(
    port: int, tenant: str, trace: list, out: list, smoke: bool, limit_s: float, done: list
) -> None:
    client = ServiceClient("127.0.0.1", port)
    start = time.perf_counter()
    for kind, cell in trace:
        sub = submission(cell, tenant, smoke, limit_s)
        t0 = time.perf_counter()
        try:
            reply = client.submit(sub, wait=True)
        except Exception:  # noqa: BLE001 - a failed submission is recorded
            out.append(Sample(kind, cell[2], time.perf_counter() - t0, "error",
                              error=traceback.format_exc()))
            continue
        latency = time.perf_counter() - t0
        outcome = reply.get("submit_status", reply.get("status", "?"))
        sample = Sample(kind, cell[2], latency, outcome, reply.get("fingerprint", ""))
        if not reply.get("ok"):
            sample.outcome, sample.error = "failed", str(reply.get("error") or reply)
        elif outcome == "queued":
            prov = (reply.get("record") or {}).get("provenance", {})
            sample.run_s = prov.get("wall_time_s")
            sample.worker_id = prov.get("worker_id")
            sample.committed_unix = prov.get("committed_unix")
        out.append(sample)
    done.append(time.perf_counter() - start)


def _scale_runs(samples: list[Sample], slices: dict[int, list[tuple[float, float]]]) -> None:
    """Set each run's ``scaled_s``: its worker seconds less the probe's
    slices among them, at the speed that worker's slices saw while it ran
    (or within one probe interval of it, for a run shorter than that)."""
    offset = time.time() - time.perf_counter()
    for s in samples:
        if s.run_s is None or s.committed_unix is None or s.worker_id not in slices:
            continue
        end = s.committed_unix - offset
        start = end - s.run_s
        lines = slices[s.worker_id]
        inside = [cpu for t, cpu in lines if start <= t <= end]
        near = inside or [cpu for t, cpu in lines
                          if start - INTERVAL_S <= t <= end + INTERVAL_S]
        s.scaled_s = (s.run_s - sum(inside)) * speed_of(near or [cpu for _, cpu in lines])


def _timed_grid(specs: list, store: Path) -> tuple[float, list]:
    t0 = time.perf_counter()
    results = parallel.run_experiments(specs, jobs=2, cache_dir=store)
    return time.perf_counter() - t0, results


def _one_pass(
    report: Report, serve: ServeProcess, client: ServiceClient, trace: list, k: int,
    smoke: bool,
) -> dict:
    limit_s = BASE_LIMIT_S + k
    before = client.status()["counters"]
    samples: list[Sample] = []
    done: list[float] = []
    threads = [
        threading.Thread(
            target=_client,
            args=(client.port, f"tenant-{i}", trace[i::N_CLIENTS], samples, smoke, limit_s, done),
        )
        for i in range(N_CLIENTS)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    after = client.status()["counters"]
    for s in samples:
        report.attempted += 1
        if s.outcome in ("error", "failed", "rejected"):
            report.fail_op("submission", s.outcome, s.error)

    unique = [cell for kind, cell in trace if kind == "unique"]
    n = len(unique)
    c = {key: after[key] - before[key] for key in after}
    report.check(
        f"service pass {k}: each unique submission ran once, each repeat was deduped",
        c["queued"] == n and c["joined"] + c["cached"] == n,
        f"queued {c['queued']}, joined {c['joined']}, cached {c['cached']}, "
        f"failed {c['failed']} for {n} unique + {n} repeats",
    )
    return {
        "samples": samples,
        # How long a client takes to get through its share of the trace.
        "wall_s": statistics.mean(done),
        "counters": c,
        "specs": [submission(c, "grid", smoke, limit_s).to_experiment_spec() for c in unique],
    }


def _grid(report: Report, catalog: ResultCatalog, specs: list, store: Path) -> dict:
    """The first pass's unique cells through ``run_experiments(jobs=2)``
    into a fresh store, cold and then warm, checked against the catalog."""
    n = len(specs)
    ok_cold, cold = report.run_op("grid", "cold", lambda: _timed_grid(specs, store))
    if ok_cold:
        same = sum(
            (rec := catalog.get(parallel.experiment_fingerprint(spec))) is not None
            and canonical_json(rec.result) == canonical_json(result_to_dict(res))
            for spec, res in zip(specs, cold[1])
        )
        report.check("grid: cold run_experiments equals the catalog records",
                     same == n, f"{same}/{n} identical")
    ok_warm, warm = report.run_op("grid", "warm", lambda: _timed_grid(specs, store))
    ok_warm = ok_warm and ok_cold  # after a failed cold pass nothing is stored
    if ok_warm:
        hits = parallel.LAST_RUN_STATS.hits
        same = all(
            canonical_json(result_to_dict(a)) == canonical_json(result_to_dict(b))
            for a, b in zip(cold[1], warm[1])
        )
        report.check("grid: warm pass is all store hits, equal to cold",
                     hits == n and same, f"{hits}/{n} hits")
    return {
        "runner.grid_wall_s": cold[0] if ok_cold else 0.0,
        "runner.store_hit_ms": 1e3 * warm[0] / n if ok_warm else 0.0,
    }


def _verify_records(
    report: Report, catalog: ResultCatalog, specs: list, seed: int, tracer: Any
) -> dict:
    """Re-run N_VERIFY catalogued cells directly; compare bit for bit.
    With a tracer, also re-run them traced and return the timings."""
    rng = random.Random(f"service-mix/verify/{seed}")
    picks = rng.sample(specs, min(N_VERIFY, len(specs)))
    ran, same, untraced, traced, traced_same = 0, 0, 0.0, 0.0, True
    for spec in picks:
        record = catalog.get(parallel.experiment_fingerprint(spec))
        t0 = time.perf_counter()
        ok, direct = report.run_op("cell", spec.label, lambda: parallel._run_spec(spec))
        untraced += time.perf_counter() - t0
        if not ok:
            continue
        ran += 1
        want = canonical_json(result_to_dict(direct))
        same += record is not None and canonical_json(record.result) == want
        if tracer is not None:
            with tracer:
                t0 = time.perf_counter()
                ok, again = report.run_op("cell", spec.label + " (traced)",
                                          lambda: parallel._run_spec(spec))
                traced += time.perf_counter() - t0
            if ok:
                traced_same &= canonical_json(result_to_dict(again)) == want
    report.check("service: sampled catalog records equal a direct _run_spec",
                 same == ran, f"{same}/{ran} bit-identical")
    if tracer is not None:
        report.check("trace: traced direct runs equal the untraced ones", traced_same)
    return {"untraced_s": untraced, "traced_s": traced}


def run_service_mix(
    report: Report, root: Path, work: Path, seed: int, seconds: float,
    smoke: bool, tracer: Any,
) -> None:
    """Passes of the closed loop until ``seconds`` have elapsed (at least
    one), then the drain, the record checks and, with a tracer, one cold
    and one warm grid; metrics over all passes."""
    trace = make_trace(seed, smoke)
    passes = []
    with ServeProcess(root, work / "serve") as serve:
        client = serve.wait_ready()
        deadline = time.perf_counter() + seconds
        while not passes or time.perf_counter() < deadline:
            k = len(passes)
            passes.append(_one_pass(report, serve, client, trace, k, smoke))
        requeues = client.status()["pool"]["requeues"]
        report.metrics["peak_rss_mb"] = serve.peak_rss_mb()
        slices = serve.worker_slices()
        # Teardown, not a measured operation: a hung drain is a known seed
        # defect that strikes at random (README, "Known defects", 2).
        report.details["drain_error"] = serve.drain()
        if report.details["drain_error"]:
            print(f"[service-mix] NOTE drain: {report.details['drain_error']}", file=sys.stderr)
        # The grid feeds only per-layer metrics, so only traced runs pay for it.
        grid = (_grid(report, serve.catalog, passes[0]["specs"], work / "store")
                if tracer is not None else {})
        verify = _verify_records(report, serve.catalog, passes[0]["specs"], seed, tracer)

    samples = [s for p in passes for s in p["samples"]]
    ran = [s for s in samples if s.outcome == "queued"]
    hits = [s.latency_s for s in samples if s.outcome == "cached"]
    job = [s.latency_s for s in ran]
    run_s = [s.run_s for s in ran if s.run_s is not None]
    overhead = [s.latency_s - s.run_s for s in ran if s.run_s is not None]
    m = report.metrics
    # Host times at reference speed.  A pass's worker seconds on its read
    # (write) cells are the sum of its runs' scaled seconds -- every pass
    # runs the same unique cells, whichever submission reached them
    # first -- and its wall time is scaled by the ratio of scaled to raw
    # worker seconds, the speed the pass's work actually ran at.
    for p in passes:
        _scale_runs(p["samples"], slices)
        runs = [s for s in p["samples"] if s.scaled_s is not None]
        raw = sum(s.run_s for s in runs)
        p["speed"] = sum(s.scaled_s for s in runs) / raw if raw else 1.0
        for op in "RW":
            p[op] = sum(s.scaled_s for s in runs if s.op == op)
    m["wall_s"] = statistics.median(p["wall_s"] * p["speed"] for p in passes)
    m["read_wall_s"] = statistics.median(p["R"] for p in passes)
    m["write_wall_s"] = statistics.median(p["W"] for p in passes)

    def pct(values: list, p: Optional[float]) -> float:
        return percentile(values, p) if values and p else 0.0

    job_tail = tail_percentile(len(job))
    m.update({
        "service.job_p50_s": pct(job, 50),
        "service.job_tail_s": pct(job, job_tail),
        "service.job_tail_pct": job_tail or 0.0,
        "service.jobs_ran": len(job),
        "service.hit_p50_ms": 1e3 * pct(hits, 50),
        "service.hit_tail_ms": 1e3 * pct(hits, tail_percentile(len(hits))),
        "service.run_p50_s": pct(run_s, 50),
        "service.overhead_p50_ms": 1e3 * pct(overhead, 50),
        "service.queued": statistics.mean(p["counters"]["queued"] for p in passes),
        "service.joined": statistics.mean(p["counters"]["joined"] for p in passes),
        "service.cached": statistics.mean(p["counters"]["cached"] for p in passes),
        "service.requeues": requeues / len(passes),
    })
    m.update(grid)
    if tracer is not None and verify["untraced_s"] > 0:
        m["trace.overhead"] = verify["traced_s"] / verify["untraced_s"]
    report.details["passes"] = len(passes)
    report.details["host_wall_s"] = statistics.median(p["wall_s"] for p in passes)
    report.details["pass_speed"] = [p["speed"] for p in passes]
    report.details["samples"] = [vars(s) for s in samples]
