"""Service-level coverage: coordinator, worker pool, end-to-end dedup.

The harness the tentpole ships with (ISSUE 9): an in-process coordinator
fixture (`start_in_thread` on a temp catalog), concurrent-submission
dedup tests, crash-a-worker-mid-job requeue tests, and the bit-identity
check that a catalogued result equals a direct ``run_experiment`` of the
same spec -- including faulted + guarded specs, whose fault log and
guard transitions must match a direct run bit for bit.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro import ExperimentSpec, JobSpec, MpiIoTest
from repro.cluster import paper_spec
from repro.faults import FaultEvent, FaultPlan
from repro.guard import GuardConfig
from repro.runner.parallel import _run_spec
from repro.service import (
    ClusterSubmission,
    ExperimentSubmission,
    JobSubmission,
    ResultCatalog,
    ServiceClient,
    ServiceError,
    WorkerPool,
    canonical_json,
    result_to_dict,
    start_in_thread,
    wait_until_ready,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = str(REPO_ROOT / "src")


def _submission(label="svc", size_mb=2, tenant="default", **over):
    defaults = dict(
        jobs=(JobSubmission("j0", "mpi-io-test", nprocs=4, size_mb=size_mb),),
        cluster=ClusterSubmission(compute_nodes=4, data_servers=3),
        label=label,
        tenant=tenant,
    )
    defaults.update(over)
    return ExperimentSubmission(**defaults)


def _faulted_guarded_submission():
    """A spec that exercises faults + guard through the whole stack."""
    return _submission(
        label="chaos",
        jobs=(
            JobSubmission(
                "j0", "mpi-io-test", nprocs=4, size_mb=2, strategy="dualpar-forced"
            ),
        ),
        quota_kb=256,
        fault_plan=FaultPlan(
            seed=11,
            events=(
                FaultEvent(
                    kind="disk_failslow",
                    at_s=0.05,
                    until_s=0.6,
                    transfer_factor=3.0,
                ),
            ),
        ),
        guard=GuardConfig(),
    )


@pytest.fixture
def service(tmp_path):
    """An in-process coordinator on its own thread, temp catalog, chaos
    flags enabled -- the fixture every service-level test builds on."""
    handle = start_in_thread(
        catalog_dir=tmp_path / "catalog", workers=2, allow_chaos=True
    )
    client = ServiceClient(handle.host, handle.port)
    try:
        yield handle, client, tmp_path / "catalog"
    finally:
        handle.stop()


# ---------------------------------------------------------------------------
# basics: protocol, provenance, catalog commit
# ---------------------------------------------------------------------------


def test_ping_and_status_shape(service):
    _handle, client, _catalog_dir = service
    assert client.ping() == {"ok": True, "schema_version": 1}
    status = client.status()
    assert status["in_flight"] == 0
    assert status["catalog_entries"] == 0
    assert not status["draining"]
    assert {w["alive"] for w in status["pool"]["workers"]} == {True}
    assert len(status["pool"]["workers"]) == 2


def test_submit_runs_and_catalogs_with_full_provenance(service):
    handle, client, catalog_dir = service
    sub = _submission()
    response = client.submit(sub, wait=True)
    assert response["ok"] and response["status"] == "done"
    assert response["submit_status"] == "queued"
    record = response["record"]
    assert record["fingerprint"] == sub.fingerprint()
    assert record["submission"] == sub.to_dict()
    prov = record["provenance"]
    for field in (
        "repro_version",
        "tenant",
        "worker_id",
        "attempts",
        "wall_time_s",
        "submitted_unix",
        "committed_unix",
        "coordinator_host",
        "coordinator_pid",
    ):
        assert field in prov, field
    assert prov["attempts"] == 1
    assert prov["coordinator_pid"] == os.getpid()
    # The record is on disk, whole, and identical to the wire copy.
    on_disk = ResultCatalog(catalog_dir).get(sub.fingerprint())
    assert on_disk is not None
    assert on_disk.to_dict() == record


def test_catalog_result_bit_identical_to_direct_run(service):
    _handle, client, catalog_dir = service
    sub = _submission()
    client.submit(sub, wait=True)
    record = ResultCatalog(catalog_dir).get(sub.fingerprint())
    direct = result_to_dict(_run_spec(sub.to_experiment_spec()))
    assert canonical_json(record.result) == canonical_json(direct)


def test_faulted_guarded_submission_matches_direct_run_bit_for_bit(service):
    """Chaos satellite: a spec with a fault plan + guard submitted
    through the coordinator catalogs the same fault log and guard
    transitions a direct run produces -- bit for bit."""
    _handle, client, catalog_dir = service
    sub = _faulted_guarded_submission()
    response = client.submit(sub, wait=True)
    assert response["status"] == "done"
    record = ResultCatalog(catalog_dir).get(sub.fingerprint())
    direct = result_to_dict(_run_spec(sub.to_experiment_spec()))
    assert record.result["fault_log"] == direct["fault_log"]
    assert record.result["fault_log"]  # the plan actually fired
    assert record.result["guard_transitions"] == direct["guard_transitions"]
    assert record.result["guard_summary"] == direct["guard_summary"]
    assert canonical_json(record.result) == canonical_json(direct)
    # The provenance keeps the plan + guard verbatim for the audit trail.
    assert record.submission["fault_plan"] == sub.to_dict()["fault_plan"]
    assert record.submission["guard"] is not None


def test_observed_submission_catalogs_metrics_snapshot(service):
    _handle, client, catalog_dir = service
    sub = _submission(label="observed", observe=True)
    response = client.submit(sub, wait=True)
    assert response["status"] == "done"
    record = ResultCatalog(catalog_dir).get(sub.fingerprint())
    assert record.result["metrics"]  # the obs snapshot rode along
    direct = result_to_dict(_run_spec(sub.to_experiment_spec()))
    assert canonical_json(record.result) == canonical_json(direct)


def test_cached_hit_after_completion(service):
    handle, client, _catalog_dir = service
    sub = _submission()
    first = client.submit(sub, wait=True)
    again = client.submit(sub, wait=True)
    assert again["status"] == "cached"
    assert again["record"] == first["record"]
    counters = client.status()["counters"]
    assert counters["queued"] == 1
    assert counters["cached"] == 1
    assert counters["completed"] == 1


def test_corrupt_record_is_rerun_and_healed(service):
    """A committed record that no longer reads back is a miss; the re-run
    replaces it, so the next submission is served from the catalog."""
    _handle, client, catalog_dir = service
    sub = _submission(label="heal")
    first = client.submit(sub, wait=True)
    path = ResultCatalog(catalog_dir).path_for(sub.fingerprint())
    path.write_text(path.read_text()[:40], encoding="utf-8")
    rerun = client.submit(sub, wait=True)
    assert rerun["submit_status"] == "queued"
    again = client.submit(sub, wait=True)
    assert again["status"] == "cached"
    record = ResultCatalog(catalog_dir).get(sub.fingerprint())
    assert record is not None
    assert record.result == first["record"]["result"]


def test_compare_cell_is_served_cached_by_serve(tmp_path, monkeypatch):
    """The runner and the coordinator share one catalog: a cell computed
    by ``repro compare`` is a ``cached`` hit for ``repro serve``."""
    from repro.cli import main

    monkeypatch.setenv("REPRO_SERVICE_CATALOG", str(tmp_path))
    rc = main([
        "compare", "--workload", "mpi-io-test", "--nprocs", "4", "--size-mb", "2",
        "--strategies", "vanilla", "--compute-nodes", "4", "--data-servers", "3",
        "-j", "1",
    ])
    assert rc == 0
    (record,) = ResultCatalog(tmp_path).records()
    assert record.provenance["source"] == "runner"
    # Same cell as a submission; the job is named after its workload, as
    # compare names it, so the fingerprints match.
    sub = _submission(
        jobs=(JobSubmission("mpi-io-test", "mpi-io-test", nprocs=4, size_mb=2),)
    )
    assert sub.fingerprint() == record.fingerprint
    handle = start_in_thread(catalog_dir=tmp_path, workers=1)
    try:
        response = ServiceClient(handle.host, handle.port).submit(sub, wait=True)
    finally:
        handle.stop()
    assert response["status"] == "cached"
    assert response["record"]["result"] == record.result


# ---------------------------------------------------------------------------
# concurrent dedup
# ---------------------------------------------------------------------------


def test_concurrent_duplicate_submissions_run_exactly_once(service):
    handle, client, catalog_dir = service
    sub = _submission(label="dup")
    n_clients = 8
    responses: list[dict] = [None] * n_clients
    barrier = threading.Barrier(n_clients)

    def submit(i: int) -> None:
        barrier.wait()
        responses[i] = ServiceClient(handle.host, handle.port).submit(
            sub, wait=True
        )

    threads = [
        threading.Thread(target=submit, args=(i,)) for i in range(n_clients)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(120)
    assert all(r is not None and r["ok"] for r in responses)
    fingerprints = {r["fingerprint"] for r in responses}
    assert fingerprints == {sub.fingerprint()}
    # Every waiter got the same committed record.
    records = {canonical_json(r["record"]) for r in responses if "record" in r}
    assert len(records) == 1
    counters = client.status()["counters"]
    assert counters["queued"] == 1  # exactly one run
    assert counters["joined"] + counters["cached"] == n_clients - 1
    assert len(ResultCatalog(catalog_dir)) == 1


def test_eight_specs_two_duplicates_yield_six_records(service):
    handle, client, catalog_dir = service
    # Labels don't key the fingerprint, so size is what makes each
    # submission a distinct cell.
    unique = [_submission(label=f"u{i}", size_mb=2 + i) for i in range(6)]
    batch = unique + [unique[0], unique[3]]  # 8 submissions, 2 duplicates
    responses: list[dict] = [None] * len(batch)
    barrier = threading.Barrier(len(batch))

    def submit(i: int) -> None:
        barrier.wait()
        responses[i] = ServiceClient(handle.host, handle.port).submit(
            batch[i], wait=True
        )

    threads = [
        threading.Thread(target=submit, args=(i,)) for i in range(len(batch))
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(300)
    assert all(r is not None and r["ok"] for r in responses)
    counters = client.status()["counters"]
    assert counters["queued"] == 6
    assert counters["joined"] + counters["cached"] == 2
    assert len(ResultCatalog(catalog_dir)) == 6
    assert len({s.fingerprint() for s in unique}) == 6


# ---------------------------------------------------------------------------
# worker crash, requeue, failure reporting
# ---------------------------------------------------------------------------


def test_worker_crash_mid_job_requeues_and_completes(service):
    _handle, client, catalog_dir = service
    sub = _submission(label="crashy", size_mb=3)
    response = client.submit(sub, wait=True, chaos_crash_worker=True)
    assert response["ok"] and response["status"] == "done"
    assert response["record"]["provenance"]["attempts"] == 2
    pool = client.status()["pool"]
    assert pool["requeues"] >= 1
    assert pool["respawns"] >= 1
    # The requeued run still matches a direct run bit for bit.
    record = ResultCatalog(catalog_dir).get(sub.fingerprint())
    direct = result_to_dict(_run_spec(sub.to_experiment_spec()))
    assert canonical_json(record.result) == canonical_json(direct)


def test_worker_crash_gives_up_after_max_attempts(tmp_path):
    handle = start_in_thread(
        catalog_dir=tmp_path,
        workers=1,
        allow_chaos=True,
        max_attempts=1,
    )
    try:
        client = ServiceClient(handle.host, handle.port)
        sub = _submission(label="doomed")
        response = client.submit(sub, wait=True, chaos_crash_worker=True)
        assert not response["ok"]
        assert response["status"] == "failed"
        assert "died" in response["error"]
        assert client.status()["counters"]["failed"] == 1
        # The failure is queryable afterwards; nothing was catalogued.
        result = client.result(sub.fingerprint())
        assert result["status"] == "failed"
        assert len(ResultCatalog(tmp_path)) == 0
    finally:
        handle.stop()


def test_chaos_flag_requires_allow_chaos(tmp_path):
    handle = start_in_thread(catalog_dir=tmp_path, workers=1)
    try:
        client = ServiceClient(handle.host, handle.port)
        response = client.submit(
            _submission(), wait=True, chaos_crash_worker=True
        )
        assert not response["ok"] and response["reason"] == "invalid"
    finally:
        handle.stop()


def _failing_spec() -> ExperimentSpec:
    """A cell that raises inside the worker (its strategy does not exist)."""
    return ExperimentSpec(
        [JobSpec("j", 2, MpiIoTest(file_size=1 << 20), strategy="no-such-strategy")],
        cluster_spec=paper_spec(n_compute_nodes=2),
    )


def test_pool_reports_child_traceback_on_failing_payload():
    """A cell that raises inside a worker comes back as a 'failed'
    event carrying the child's full traceback text, not a bare error."""
    events: list[tuple] = []
    done = threading.Event()

    def deliver(event: tuple) -> None:
        events.append(event)
        done.set()

    pool = WorkerPool(1, deliver=deliver)
    pool.start()
    try:
        pool.submit("job-x", _failing_spec())
        assert done.wait(60)
    finally:
        pool.stop()
    kind, job_id, tb_text, worker_id, attempts = events[0]
    assert kind == "failed"
    assert job_id == "job-x"
    assert "Traceback (most recent call last)" in tb_text
    assert "unknown strategy 'no-such-strategy'" in tb_text
    assert attempts == 1


def _start_submit_stop(cycle: int) -> list:
    """One pool lifecycle; returns the parent-side connections it used."""
    done = threading.Event()
    pool = WorkerPool(2, deliver=lambda event: done.set())
    pool.start()
    pool.submit(f"job-{cycle}", _failing_spec())
    assert done.wait(60)
    conns = [c for w in pool._workers.values() for c in (w.job_conn, w.result_conn)]
    errors: list[Exception] = []

    def stop() -> None:
        try:
            pool.stop()
        except Exception as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    stopper = threading.Thread(target=stop, daemon=True)
    stopper.start()
    stopper.join(30)
    assert not stopper.is_alive(), f"stop() hung in cycle {cycle}"
    assert not errors, f"stop() raised in cycle {cycle}: {errors[0]!r}"
    return conns


def test_pool_start_submit_stop_cycles_are_clean(monkeypatch):
    """stop() and the monitor thread never both close a worker's pipes:
    over repeated start/submit/stop cycles every connection is closed
    exactly once, stop() raises nothing and never hangs."""
    from multiprocessing.connection import Connection

    closes: dict[int, list] = {}  # id -> [conn (kept alive: no id reuse), count]
    real_close = Connection.close

    def counting_close(conn: Connection) -> None:
        closes.setdefault(id(conn), [conn, 0])[1] += 1
        real_close(conn)

    monkeypatch.setattr(Connection, "close", counting_close)
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # let the monitor and stop() interleave
    try:
        for cycle in range(20):
            conns = _start_submit_stop(cycle)
            assert [closes.get(id(c), [c, 0])[1] for c in conns] == [1] * len(conns), cycle
    finally:
        sys.setswitchinterval(switch)


# ---------------------------------------------------------------------------
# quotas and backpressure
# ---------------------------------------------------------------------------


def test_tenant_quota_rejection_is_per_tenant(tmp_path):
    handle = start_in_thread(
        catalog_dir=tmp_path,
        workers=1,
        tenant_cap_bytes=4 * 1024 * 1024,
    )
    try:
        client = ServiceClient(handle.host, handle.port)
        big = _submission(label="big", size_mb=8, tenant="acme")
        response = client.submit(big)
        assert not response["ok"]
        assert response["reason"] == "quota"
        assert response["tenant"] == "acme"
        # Another tenant's small submission is unaffected.
        ok = client.submit(
            _submission(label="small", size_mb=2, tenant="zephyr"), wait=True
        )
        assert ok["ok"] and ok["status"] == "done"
        counters = client.status()["counters"]
        assert counters["rejected_quota"] == 1
    finally:
        handle.stop()


def test_global_backpressure_rejection(tmp_path):
    handle = start_in_thread(
        catalog_dir=tmp_path,
        workers=1,
        tenant_cap_bytes=64 * 1024 * 1024,
        queue_cap_bytes=5 * 1024 * 1024,
    )
    try:
        client = ServiceClient(handle.host, handle.port)
        first = client.submit(_submission(label="a", size_mb=4, tenant="t1"))
        assert first["ok"]
        # Within t2's tenant cap but over the coordinator-wide cap while
        # the first submission still holds its charge.
        second = client.submit(_submission(label="b", size_mb=4, tenant="t2"))
        if not second["ok"]:
            assert second["reason"] == "backpressure"
            assert client.status()["counters"]["rejected_backpressure"] == 1
        else:
            # The first job can drain before the second arrives; then the
            # charge was already released and admission is correct too.
            assert client.status()["counters"]["rejected_backpressure"] == 0
    finally:
        handle.stop()


def test_max_jobs_ceiling(tmp_path):
    handle = start_in_thread(catalog_dir=tmp_path, workers=1, max_jobs=0)
    try:
        client = ServiceClient(handle.host, handle.port)
        response = client.submit(_submission())
        assert not response["ok"] and response["reason"] == "backpressure"
    finally:
        handle.stop()


def test_invalid_submissions_rejected_over_the_wire(service):
    _handle, client, _catalog_dir = service
    no_version = _submission().to_dict()
    del no_version["schema_version"]
    unknown_field = _submission().to_dict()
    unknown_field["surprise"] = 1
    for bad in (no_version, unknown_field, {"schema_version": 99, "jobs": []}):
        response = client.submit(bad)
        assert not response["ok"]
        assert response["reason"] == "invalid"
    assert client.status()["counters"]["rejected_invalid"] == 3
    # Non-JSON and non-object requests get an error reply, not a hangup.
    assert not client.request({"op": "submit"})["ok"]
    assert not client.request({"op": "frobnicate"})["ok"]


# ---------------------------------------------------------------------------
# drain and shutdown
# ---------------------------------------------------------------------------


def test_drain_finishes_in_flight_jobs_without_loss(tmp_path):
    handle = start_in_thread(catalog_dir=tmp_path, workers=2)
    client = ServiceClient(handle.host, handle.port)
    subs = [_submission(label=f"d{i}", size_mb=2 + i) for i in range(3)]
    for sub in subs:
        assert client.submit(sub)["ok"]  # fire and forget
    client.shutdown(drain=True)
    handle._thread.join(300)
    assert not handle._thread.is_alive()
    catalog = ResultCatalog(tmp_path)
    assert len(catalog) == 3
    for sub in subs:
        record = catalog.get(sub.fingerprint())
        assert record is not None
        direct = result_to_dict(_run_spec(sub.to_experiment_spec()))
        assert canonical_json(record.result) == canonical_json(direct)


def test_draining_coordinator_rejects_new_submissions(tmp_path):
    handle = start_in_thread(catalog_dir=tmp_path, workers=1)
    client = ServiceClient(handle.host, handle.port)
    # Park one job so the drain has something to wait on, then race a
    # new submission against the closing server.
    assert client.submit(_submission(label="parked", size_mb=4))["ok"]
    client.shutdown(drain=True)
    try:
        late = client.submit(_submission(label="late"))
        assert not late["ok"]
        assert late.get("reason") in ("draining", None)
    except ServiceError:
        pass  # listener already closed: equally correct rejection
    handle._thread.join(300)
    assert len(ResultCatalog(tmp_path)) == 1


# ---------------------------------------------------------------------------
# the real thing: `repro serve` subprocess, SIGTERM drain, CLI clients
# ---------------------------------------------------------------------------


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def test_serve_subprocess_sigterm_drains_cleanly(tmp_path):
    catalog_dir = tmp_path / "catalog"
    port_file = tmp_path / "port"
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--workers",
            "2",
            "--catalog",
            str(catalog_dir),
            "--port-file",
            str(port_file),
        ],
        env=_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    try:
        deadline = time.monotonic() + 60
        while not port_file.exists() and time.monotonic() < deadline:
            assert proc.poll() is None, proc.stdout.read()
            time.sleep(0.05)
        port = int(port_file.read_text().strip())
        client = wait_until_ready("127.0.0.1", port)

        subs = [_submission(label=f"s{i}", size_mb=2 + i) for i in range(2)]
        # The coordinator keys records by the code version it read at
        # start; this process cached its own earlier in the test run, and
        # the two differ if the source tree changed in between.  So look
        # records up by the fingerprint the coordinator answers with.
        fingerprints = []
        for sub in subs:
            response = client.submit(sub)
            assert response["ok"]  # queued, not waited on
            fingerprints.append(response["fingerprint"])
        # SIGTERM lands while jobs are in flight: the coordinator must
        # drain them into the catalog, then exit 0.
        proc.send_signal(signal.SIGTERM)
        out, _ = proc.communicate(timeout=300)
        assert proc.returncode == 0, out
        assert "drained:" in out
        catalog = ResultCatalog(catalog_dir)
        assert len(catalog) == 2
        for sub, fingerprint in zip(subs, fingerprints):
            record = catalog.get(fingerprint)
            assert record is not None
            direct = result_to_dict(_run_spec(sub.to_experiment_spec()))
            assert canonical_json(record.result) == canonical_json(direct)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate(timeout=30)


def test_cli_submit_status_catalog_roundtrip(service, tmp_path):
    handle, client, catalog_dir = service
    spec_path = tmp_path / "spec.json"
    sub = _submission(label="cli")
    spec_path.write_text(sub.to_json(), encoding="utf-8")

    def run_cli(*argv):
        return subprocess.run(
            [sys.executable, "-m", "repro", *argv],
            env=_env(),
            capture_output=True,
            text=True,
            timeout=300,
        )

    submitted = run_cli(
        "submit", str(spec_path), "--port", str(handle.port), "--wait"
    )
    assert submitted.returncode == 0, submitted.stderr
    response = json.loads(submitted.stdout)
    assert response["status"] == "done"
    assert response["fingerprint"] == sub.fingerprint()

    status = run_cli("status", "--port", str(handle.port))
    assert status.returncode == 0, status.stderr
    assert json.loads(status.stdout)["catalog_entries"] == 1

    listed = run_cli("catalog", "list", "--catalog", str(catalog_dir))
    assert listed.returncode == 0, listed.stderr
    assert sub.fingerprint()[:16] in listed.stdout
    assert "cli" in listed.stdout

    shown = run_cli(
        "catalog",
        "show",
        sub.fingerprint()[:12],  # unique-prefix lookup
        "--catalog",
        str(catalog_dir),
    )
    assert shown.returncode == 0, shown.stderr
    record = json.loads(shown.stdout)
    assert record["fingerprint"] == sub.fingerprint()
    assert record["submission"] == sub.to_dict()

    missing = run_cli("catalog", "show", "feed", "--catalog", str(catalog_dir))
    assert missing.returncode == 1
