"""Async experiment coordinator: submissions in, catalog records out.

The coordinator is the long-running front of the DualPar harness
(ROADMAP item 3): tenants submit :class:`~repro.service.schemas
.ExperimentSubmission` JSON over a line-delimited TCP API, the
coordinator validates each against the versioned schema, dedupes by the
cell's sha256 fingerprint (code version included), applies
per-tenant quotas and global backpressure charged against a
:class:`repro.guard.MemoryBudget`, fans the remaining work out to a
:class:`~repro.service.worker.WorkerPool`, and commits each result to
the content-addressed :class:`~repro.service.catalog.ResultCatalog`
with full provenance.

Dedup ladder, applied in order at submit time:

1. **catalogued** -- the fingerprint already has a record: served
   immediately, nothing runs (``status: "cached"``);
2. **in flight**  -- the fingerprint is queued or running: the
   submission joins the existing job (``status: "joined"``) and, with
   ``wait``, is answered by the same record when it lands;
3. **admitted**   -- quota and backpressure permitting, the submission
   is enqueued (``status: "queued"``).

Backpressure: every admitted submission charges its declared data
volume against the guard budget -- per-tenant (``job_cap_bytes``-style
cap -> ``status: "rejected", reason: "quota"``) and coordinator-wide
(``node_cap_bytes``-style cap, plus a queued-job count ceiling ->
``reason: "backpressure"``).  Charges release when the job leaves the
system, so a throttled tenant only has to wait, not resubmit blindly.

Shutdown: ``request_shutdown(drain=True)`` (wired to SIGTERM/SIGINT by
``repro serve``) stops accepting submissions, lets queued and in-flight
jobs finish, commits their records, then stops the pool -- no catalog
entry is lost or duplicated by a drain (content-addressed commits are
first-write-wins and idempotent).

Wire protocol: one JSON object per line, one JSON reply per line.
Operations: ``submit`` (optionally ``wait``), ``status``, ``result``,
``list``, ``ping``, ``shutdown``.  See ``docs/service.md``.
"""

from __future__ import annotations

import asyncio
import json
import os
import socket
import threading
import time
from typing import Any, Optional

from repro import __version__
from repro.guard import GuardConfig, MemoryBudget
from repro.runner.parallel import _code_fingerprint, experiment_fingerprint
from repro.service.catalog import CatalogRecord, ResultCatalog
from repro.service.schemas import SCHEMA_VERSION, ExperimentSubmission
from repro.service.worker import WorkerPool

__all__ = ["Coordinator", "ServiceHandle", "start_in_thread"]

#: Default per-tenant cap on declared bytes queued + running (4 GiB).
DEFAULT_TENANT_CAP_BYTES = 4 * 1024**3
#: Default coordinator-wide cap on declared bytes in the system (16 GiB).
DEFAULT_QUEUE_CAP_BYTES = 16 * 1024**3
#: Default ceiling on jobs queued or running, regardless of size.
DEFAULT_MAX_JOBS = 256

#: The single "node" every admission charge lands on: the coordinator
#: itself is the shared resource the global cap protects.
_COORD_NODE = 0


class _PendingJob:
    __slots__ = (
        "fingerprint",
        "payload",
        "tenant",
        "charged_bytes",
        "n_joined",
        "waiters",
        "submitted_unix",
    )

    def __init__(
        self, fingerprint: str, submission: ExperimentSubmission, payload: dict
    ) -> None:
        self.fingerprint = fingerprint
        self.payload = payload
        self.tenant = submission.tenant
        self.charged_bytes = submission.declared_bytes
        self.n_joined = 0
        self.waiters: list[asyncio.Future] = []
        self.submitted_unix = time.time()


class Coordinator:
    """The experiment service: schema gate, dedup, quotas, fan-out,
    catalog commit.  One instance per process; start on a running loop."""

    def __init__(
        self,
        catalog_dir: Optional[Any] = None,
        workers: int = 2,
        host: str = "127.0.0.1",
        port: int = 0,
        tenant_cap_bytes: int = DEFAULT_TENANT_CAP_BYTES,
        queue_cap_bytes: int = DEFAULT_QUEUE_CAP_BYTES,
        max_jobs: int = DEFAULT_MAX_JOBS,
        max_attempts: int = 3,
        allow_chaos: bool = False,
    ) -> None:
        self.catalog = ResultCatalog(catalog_dir)
        self.host = host
        self.port = port  # rebound to the real port once the server binds
        self.n_workers = workers
        self.max_jobs = max_jobs
        #: Accept protocol-level chaos flags (crash-a-worker); test rigs
        #: and the smoke harness only -- never a production default.
        self.allow_chaos = allow_chaos
        # Tenant quotas and global backpressure ride the guard's budget
        # accountant: tenants are "jobs", the coordinator is the "node".
        self._budget = MemoryBudget(
            GuardConfig(job_cap_bytes=tenant_cap_bytes, node_cap_bytes=queue_cap_bytes)
        )
        self._tenant_ids: dict[str, int] = {}
        self._max_attempts = max_attempts
        self._jobs: dict[str, _PendingJob] = {}
        self._failures: dict[str, str] = {}
        self._pool: Optional[WorkerPool] = None
        self._server: Optional[asyncio.base_events.Server] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._draining = False
        self._stopped: Optional[asyncio.Event] = None
        self._started_unix = 0.0
        # -- counters ------------------------------------------------------
        self.n_submissions = 0
        self.n_cached = 0
        self.n_joined = 0
        self.n_queued = 0
        self.n_completed = 0
        self.n_failed = 0
        self.n_rejected_quota = 0
        self.n_rejected_backpressure = 0
        self.n_rejected_invalid = 0

    # -- lifecycle -------------------------------------------------------

    async def start(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stopped = asyncio.Event()
        self._started_unix = time.time()
        loop = self._loop
        self._pool = WorkerPool(
            self.n_workers,
            deliver=lambda event: loop.call_soon_threadsafe(self._on_pool_event, event),
            max_attempts=self._max_attempts,
        )
        self._pool.start()
        self._server = await asyncio.start_server(
            self._handle_client, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    def request_shutdown(self, drain: bool = True) -> None:
        """Begin shutdown; safe to call from signal handlers and tasks."""
        assert self._loop is not None
        self._loop.create_task(self.shutdown(drain=drain))

    async def shutdown(self, drain: bool = True) -> None:
        if self._draining:
            return
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if drain:
            while self._jobs:
                await asyncio.sleep(0.02)
        if self._pool is not None:
            pool = self._pool
            await asyncio.get_running_loop().run_in_executor(
                None, lambda: pool.stop(drain=drain)
            )
        assert self._stopped is not None
        self._stopped.set()

    async def wait_stopped(self) -> None:
        assert self._stopped is not None
        await self._stopped.wait()

    # -- wire protocol ---------------------------------------------------

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                try:
                    request = json.loads(line)
                    if not isinstance(request, dict):
                        raise ValueError("request must be a JSON object")
                    response = await self._handle_request(request)
                except ValueError as exc:
                    response = {"ok": False, "error": str(exc)}
                writer.write(json.dumps(response).encode() + b"\n")
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            writer.close()

    async def _handle_request(self, request: dict) -> dict:
        op = request.get("op")
        if op == "ping":
            return {"ok": True, "schema_version": SCHEMA_VERSION}
        if op == "submit":
            return await self._handle_submit(request)
        if op == "status":
            return {"ok": True, "status": self.status()}
        if op == "result":
            return self._handle_result(request)
        if op == "list":
            return {"ok": True, "fingerprints": self.catalog.fingerprints()}
        if op == "shutdown":
            self.request_shutdown(drain=bool(request.get("drain", True)))
            return {"ok": True, "draining": True}
        return {"ok": False, "error": f"unknown op {op!r}"}

    # -- submission ------------------------------------------------------

    def _tenant_id(self, tenant: str) -> int:
        return self._tenant_ids.setdefault(tenant, len(self._tenant_ids))

    async def _handle_submit(self, request: dict) -> dict:
        self.n_submissions += 1
        raw = request.get("submission")
        if not isinstance(raw, dict):
            self.n_rejected_invalid += 1
            return {"ok": False, "status": "rejected", "reason": "invalid",
                    "error": "submit needs a 'submission' object"}
        try:
            submission = ExperimentSubmission.from_dict(raw)
            spec = submission.to_experiment_spec()
            fingerprint = experiment_fingerprint(spec)
        except (ValueError, TypeError) as exc:
            self.n_rejected_invalid += 1
            return {"ok": False, "status": "rejected", "reason": "invalid",
                    "error": str(exc)}
        wait = bool(request.get("wait", False))
        chaos_crash = bool(request.get("chaos_crash_worker", False))
        if chaos_crash and not self.allow_chaos:
            self.n_rejected_invalid += 1
            return {"ok": False, "status": "rejected", "reason": "invalid",
                    "error": "chaos_crash_worker requires --allow-chaos"}

        # 1. Already catalogued: content-addressed hit, nothing to run.
        record = self.catalog.get(fingerprint)
        if record is not None:
            self.n_cached += 1
            response = {"ok": True, "status": "cached", "fingerprint": fingerprint}
            if wait:
                response["record"] = record.to_dict()
            return response

        # 2. In flight: join the existing job.
        job = self._jobs.get(fingerprint)
        if job is not None:
            self.n_joined += 1
            job.n_joined += 1
            if wait:
                return await self._wait_for(job, status="joined")
            return {"ok": True, "status": "joined", "fingerprint": fingerprint}

        if self._draining:
            return {"ok": False, "status": "rejected", "reason": "draining",
                    "fingerprint": fingerprint}

        # 3. Admission control: job-count ceiling, then the guard budget
        # (per-tenant cap first so the reason is attributable).
        if len(self._jobs) >= self.max_jobs:
            self.n_rejected_backpressure += 1
            return {"ok": False, "status": "rejected", "reason": "backpressure",
                    "fingerprint": fingerprint}
        tenant_id = self._tenant_id(submission.tenant)
        declared = submission.declared_bytes
        if self._budget.job_headroom(tenant_id) < declared:
            self.n_rejected_quota += 1
            return {"ok": False, "status": "rejected", "reason": "quota",
                    "fingerprint": fingerprint, "tenant": submission.tenant}
        if not self._budget.try_charge(declared, job_id=tenant_id, node=_COORD_NODE):
            self.n_rejected_backpressure += 1
            return {"ok": False, "status": "rejected", "reason": "backpressure",
                    "fingerprint": fingerprint}

        payload = submission.to_dict()
        job = _PendingJob(fingerprint, submission, payload)
        self._jobs[fingerprint] = job
        self.n_queued += 1
        assert self._pool is not None
        self._pool.submit(fingerprint, spec, chaos_crash=chaos_crash)
        if wait:
            return await self._wait_for(job, status="queued")
        return {"ok": True, "status": "queued", "fingerprint": fingerprint}

    async def _wait_for(self, job: _PendingJob, status: str) -> dict:
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        job.waiters.append(future)
        response = dict(await future)
        response["submit_status"] = status
        return response

    def _handle_result(self, request: dict) -> dict:
        fingerprint = request.get("fingerprint")
        if not isinstance(fingerprint, str):
            return {"ok": False, "error": "result needs a 'fingerprint' string"}
        record = self.catalog.get(fingerprint)
        if record is not None:
            return {"ok": True, "status": "done", "record": record.to_dict()}
        if fingerprint in self._jobs:
            return {"ok": True, "status": "pending", "fingerprint": fingerprint}
        if fingerprint in self._failures:
            return {"ok": False, "status": "failed",
                    "error": self._failures[fingerprint]}
        return {"ok": True, "status": "unknown", "fingerprint": fingerprint}

    # -- pool events -----------------------------------------------------

    def _on_pool_event(self, event: tuple) -> None:
        kind = event[0]
        if kind == "done":
            _, fingerprint, result, worker_id, wall_s, attempts = event
            job = self._jobs.get(fingerprint)
            if job is None:  # pragma: no cover - defensive
                return
            record = CatalogRecord(
                fingerprint=fingerprint,
                code_version=_code_fingerprint(),
                submission=job.payload,
                result=result,
                provenance={
                    "source": "serve",
                    "repro_version": __version__,
                    "tenant": job.tenant,
                    "worker_id": worker_id,
                    "attempts": attempts,
                    "wall_time_s": wall_s,
                    "submitted_unix": job.submitted_unix,
                    "committed_unix": time.time(),
                    "coordinator_host": socket.gethostname(),
                    "coordinator_pid": os.getpid(),
                    "n_joined": job.n_joined,
                },
            )
            self.catalog.put(record)
            self.n_completed += 1
            self._finish(job, {"ok": True, "status": "done",
                               "fingerprint": fingerprint,
                               "record": record.to_dict()})
        elif kind == "failed":
            _, fingerprint, tb_text, _worker_id, _attempts = event
            job = self._jobs.get(fingerprint)
            if job is None:  # pragma: no cover - defensive
                return
            self.n_failed += 1
            self._failures[fingerprint] = tb_text
            self._finish(job, {"ok": False, "status": "failed",
                               "fingerprint": fingerprint, "error": tb_text})
        # "requeue" events are informational; the pool already counts them.

    def _finish(self, job: _PendingJob, response: dict) -> None:
        del self._jobs[job.fingerprint]
        tenant_id = self._tenant_id(job.tenant)
        self._budget.release(job.charged_bytes, job_id=tenant_id, node=_COORD_NODE)
        for future in job.waiters:
            if not future.done():
                future.set_result(response)
        job.waiters.clear()

    # -- introspection ---------------------------------------------------

    def status(self) -> dict:
        pool = self._pool.snapshot() if self._pool is not None else {}
        tenants = {
            tenant: {
                "active_bytes": self._budget.job_used(tenant_id),
                "headroom_bytes": self._budget.job_headroom(tenant_id),
            }
            for tenant, tenant_id in sorted(self._tenant_ids.items())
        }
        return {
            "host": self.host,
            "port": self.port,
            "pid": os.getpid(),
            "uptime_s": time.time() - self._started_unix,
            "draining": self._draining,
            "schema_version": SCHEMA_VERSION,
            "catalog_dir": str(self.catalog.root),
            "catalog_entries": len(self.catalog),
            "in_flight": len(self._jobs),
            "queued_bytes": self._budget.node_used(_COORD_NODE),
            "tenants": tenants,
            "counters": {
                "submissions": self.n_submissions,
                "cached": self.n_cached,
                "joined": self.n_joined,
                "queued": self.n_queued,
                "completed": self.n_completed,
                "failed": self.n_failed,
                "rejected_quota": self.n_rejected_quota,
                "rejected_backpressure": self.n_rejected_backpressure,
                "rejected_invalid": self.n_rejected_invalid,
            },
            "pool": pool,
        }


# ---------------------------------------------------------------------------
# in-thread embedding (tests, smoke harness)
# ---------------------------------------------------------------------------


class ServiceHandle:
    """A coordinator running on its own loop in a background thread."""

    def __init__(self) -> None:
        self.coordinator: Optional[Coordinator] = None
        self.host = ""
        self.port = 0
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._error: Optional[BaseException] = None

    def stop(self, drain: bool = True, timeout: float = 60.0) -> None:
        if self._loop is not None and self.coordinator is not None:
            self._loop.call_soon_threadsafe(
                self.coordinator.request_shutdown, drain
            )
        if self._thread is not None:
            self._thread.join(timeout)

    def __enter__(self) -> "ServiceHandle":
        return self

    def __exit__(self, *_exc: Any) -> None:
        self.stop()


def start_in_thread(timeout: float = 60.0, **kwargs: Any) -> ServiceHandle:
    """Start a coordinator on a dedicated thread; returns once it is
    listening.  The in-process fixture the service tests build on."""
    handle = ServiceHandle()

    def runner() -> None:
        async def main() -> None:
            coordinator = Coordinator(**kwargs)
            await coordinator.start()
            handle.coordinator = coordinator
            handle.host = coordinator.host
            handle.port = coordinator.port
            handle._loop = asyncio.get_running_loop()
            handle._ready.set()
            await coordinator.wait_stopped()

        try:
            asyncio.run(main())
        except BaseException as exc:  # pragma: no cover - surfaced on start
            handle._error = exc
            handle._ready.set()

    handle._thread = threading.Thread(
        target=runner, name="repro-coordinator", daemon=True
    )
    handle._thread.start()
    if not handle._ready.wait(timeout) or handle.coordinator is None:
        raise RuntimeError(f"coordinator failed to start: {handle._error!r}")
    return handle
