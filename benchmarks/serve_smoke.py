"""Service smoke harness: the CI `service` job and `make serve-smoke`.

Starts a real ``repro serve`` coordinator subprocess, fires 8
submissions (6 unique cells + 2 duplicates) at it from 2 concurrent
client *processes* -- so the dedup under test is genuinely
cross-process -- then SIGTERMs the coordinator and checks the drain:

- every submission is answered ``ok`` with a committed record;
- the catalog holds exactly 6 entries (one per unique fingerprint);
- the coordinator's counters show 6 queued runs and 2 dedup hits
  (``joined`` while in flight or ``cached`` after commit);
- each catalogued result is bit-identical to a direct in-process
  ``run_experiment`` of the same spec;
- SIGTERM exits 0 after printing the drain summary.

Writes ``summary.json`` next to the catalog for the CI artifact.
Exits non-zero on any violation.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = str(REPO_ROOT / "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

from repro.runner.parallel import _run_spec  # noqa: E402
from repro.service import (  # noqa: E402
    ClusterSubmission,
    ExperimentSubmission,
    JobSubmission,
    ResultCatalog,
    canonical_json,
    result_to_dict,
    wait_until_ready,
)


def _submission(label: str, size_mb: int, tenant: str) -> ExperimentSubmission:
    return ExperimentSubmission(
        jobs=(JobSubmission("j0", "mpi-io-test", nprocs=4, size_mb=size_mb),),
        cluster=ClusterSubmission(compute_nodes=4, data_servers=3),
        label=label,
        tenant=tenant,
    )


def _batches() -> list[list[ExperimentSubmission]]:
    """8 submissions split over 2 client processes; the duplicates sit
    in the *other* process than their originals."""
    unique = [_submission(f"u{i}", 2 + i, f"tenant-{i % 2}") for i in range(6)]
    # Duplicates differ only by label/tenant -- neither keys the
    # fingerprint, so these are true content-addressed repeats.
    dup_a = _submission("dup-of-u0", 2, "tenant-1")
    dup_b = _submission("dup-of-u3", 5, "tenant-0")
    assert dup_a.fingerprint() == unique[0].fingerprint()
    assert dup_b.fingerprint() == unique[3].fingerprint()
    return [
        [unique[0], unique[2], unique[4], dup_b],
        [unique[1], unique[3], unique[5], dup_a],
    ]


def _client_main(port: int, batch_index: int, payloads: list[dict], q) -> None:
    from repro.service import ExperimentSubmission, wait_until_ready

    client = wait_until_ready("127.0.0.1", port)
    out = []
    for raw in payloads:
        response = client.submit(
            ExperimentSubmission.from_dict(raw), wait=True, timeout=600.0
        )
        out.append(
            {
                "ok": response.get("ok"),
                "fingerprint": response.get("fingerprint"),
                "submit_status": response.get("submit_status", response.get("status")),
            }
        )
    q.put((batch_index, out))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument(
        "--out-dir", default="serve-smoke-out", help="catalog + summary root"
    )
    args = parser.parse_args()

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    catalog_dir = out_dir / "catalog"
    # The audit counts what this server wrote: drop an earlier run's
    # records (another code version keys them apart).
    shutil.rmtree(catalog_dir, ignore_errors=True)
    port_file = out_dir / "port"
    if port_file.exists():
        port_file.unlink()

    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    server = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--workers",
            str(args.workers),
            "--catalog",
            str(catalog_dir),
            "--port-file",
            str(port_file),
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    failures: list[str] = []
    try:
        deadline = time.monotonic() + 60
        while not port_file.exists() and time.monotonic() < deadline:
            if server.poll() is not None:
                print(server.stdout.read())
                print("FAIL: coordinator exited before binding", flush=True)
                return 1
            time.sleep(0.05)
        port = int(port_file.read_text().strip())
        client = wait_until_ready("127.0.0.1", port)
        print(f"coordinator up on port {port}", flush=True)

        batches = _batches()
        ctx = multiprocessing.get_context()
        q = ctx.Queue()
        clients = [
            ctx.Process(
                target=_client_main,
                args=(port, i, [s.to_dict() for s in batch], q),
            )
            for i, batch in enumerate(batches)
        ]
        for p in clients:
            p.start()
        replies = dict(q.get(timeout=600) for _ in clients)
        for p in clients:
            p.join(60)
            if p.exitcode != 0:
                failures.append(f"client process exited {p.exitcode}")

        flat = [r for i in sorted(replies) for r in replies[i]]
        if not all(r["ok"] for r in flat):
            failures.append(f"submission(s) failed: {flat}")

        status = client.status()
        counters = status["counters"]
        n_dedup = counters["joined"] + counters["cached"]
        if counters["queued"] != 6:
            failures.append(f"expected 6 queued runs, got {counters['queued']}")
        if n_dedup != 2:
            failures.append(f"expected 2 dedup hits, got {n_dedup}")
        if counters["failed"] or counters["rejected_invalid"]:
            failures.append(f"unexpected failures/rejects: {counters}")

        # Drain on SIGTERM, then audit the catalog.
        server.send_signal(signal.SIGTERM)
        out, _ = server.communicate(timeout=300)
        print(out, flush=True)
        if server.returncode != 0:
            failures.append(f"serve exited {server.returncode} on SIGTERM")
        if "drained:" not in out:
            failures.append("serve did not print its drain summary")

        catalog = ResultCatalog(catalog_dir)
        if len(catalog) != 6:
            failures.append(f"expected 6 catalog entries, got {len(catalog)}")
        checked = 0
        for batch in batches:
            for sub in batch[:3]:  # the unique specs
                record = catalog.get(sub.fingerprint())
                if record is None:
                    failures.append(f"missing record for {sub.label}")
                    continue
                direct = result_to_dict(_run_spec(sub.to_experiment_spec()))
                if canonical_json(record.result) != canonical_json(direct):
                    failures.append(f"record for {sub.label} != direct run")
                checked += 1

        summary = {
            "queued": counters["queued"],
            "dedup_hits": n_dedup,
            "catalog_entries": len(catalog),
            "bit_identical_checked": checked,
            "counters": counters,
            "replies": flat,
            "failures": failures,
        }
        (out_dir / "summary.json").write_text(
            json.dumps(summary, indent=2, sort_keys=True), encoding="utf-8"
        )
        print(
            f"serve-smoke: {counters['queued']} runs, {n_dedup} dedup hits, "
            f"{len(catalog)} catalog entries, {checked} bit-identity checks",
            flush=True,
        )
    finally:
        if server.poll() is None:
            server.kill()
            server.communicate(timeout=30)

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", flush=True)
        return 1
    print("serve-smoke: PASS", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
