"""Local worker pool: experiment cells in child processes, crash-safe.

The coordinator fans submissions out to a pool of long-lived worker
processes.  This reuses the cell-execution machinery of
:mod:`repro.runner.parallel` (a worker evaluates exactly the cell
``_run_spec`` would), but unlike a ``ProcessPoolExecutor`` the pool

- knows *which* job each worker holds, so when a worker dies mid-job
  (OOM-killed, segfaulted, chaos-tested) the assignment is requeued to a
  fresh worker instead of poisoning the whole pool;
- caps requeues per job (``max_attempts``) so a cell that reliably
  kills its worker eventually fails loudly instead of cycling forever;
- reports Python exceptions raised *inside* a cell with the child's full
  traceback text (they are not requeued: the simulation is
  deterministic, so a failing cell would fail again).

Transport: one job pipe (parent -> child) and one result pipe (child ->
parent) per worker, plus the process sentinel; a single monitor thread
multiplexes all of them with :func:`multiprocessing.connection.wait`.
Pool events are delivered to the owner through the ``deliver`` callback
*on the monitor thread* -- the coordinator bridges them onto its asyncio
loop with ``call_soon_threadsafe``.

Event tuples delivered::

    ("done",    job_id, slim_result, worker_id, wall_s, attempts)
    ("failed",  job_id, traceback_text, worker_id, attempts)
    ("requeue", job_id, dead_worker_id, attempts)   # informational
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
import traceback
from collections import deque
from multiprocessing.connection import Connection, wait as mp_wait
from typing import Any, Callable, Optional

# Pre-import everything a worker touches so a forked child never has to
# take the import lock (the pool may be started from a non-main thread).
from repro.runner.parallel import _run_spec  # noqa: F401  (worker entry)

__all__ = ["WorkerPool"]

#: Exit code a chaos-crashed worker dies with (tests assert on requeue,
#: not the code; it just keeps post-mortems readable).
CHAOS_EXIT_CODE = 13


def _execute_submission(payload: dict) -> Any:
    """Child-side cell evaluation: parse, lower, run, slim."""
    from repro.service.schemas import ExperimentSubmission

    submission = ExperimentSubmission.from_dict(payload)
    return _run_spec(submission.to_experiment_spec())


def _worker_main(worker_id: int, job_conn: Connection, result_conn: Connection) -> None:
    """Worker loop: receive ("job", id, payload, chaos_crash) until "stop"."""
    while True:
        try:
            msg = job_conn.recv()
        except (EOFError, OSError):
            break
        if msg[0] == "stop":
            break
        _, job_id, payload, chaos_crash = msg
        if chaos_crash:
            # Deterministic crash-mid-job used by the requeue tests: the
            # job was assigned (the coordinator is counting on us) and we
            # die without a word, exactly like an OOM kill.
            os._exit(CHAOS_EXIT_CODE)
        t0 = time.perf_counter()
        try:
            result = _execute_submission(payload)
        except Exception:
            result_conn.send(("error", job_id, traceback.format_exc()))
        else:
            result_conn.send(("done", job_id, result, time.perf_counter() - t0))


class _Assignment:
    __slots__ = ("job_id", "payload", "attempts", "chaos_crash")

    def __init__(self, job_id: str, payload: dict, chaos_crash: bool = False) -> None:
        self.job_id = job_id
        self.payload = payload
        self.attempts = 0
        self.chaos_crash = chaos_crash


class _Worker:
    __slots__ = ("id", "process", "job_conn", "result_conn", "current")

    def __init__(
        self,
        worker_id: int,
        process: multiprocessing.process.BaseProcess,
        job_conn: Connection,
        result_conn: Connection,
    ) -> None:
        self.id = worker_id
        self.process = process
        self.job_conn = job_conn
        self.result_conn = result_conn
        self.current: Optional[_Assignment] = None


def _mp_context() -> multiprocessing.context.BaseContext:
    """Fork when the platform has it (cheap, everything pre-imported);
    the platform default otherwise."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-fork platforms
        return multiprocessing.get_context()


class WorkerPool:
    """A fixed-size pool of experiment workers with crash requeue."""

    def __init__(
        self,
        n_workers: int,
        deliver: Callable[[tuple], None],
        max_attempts: int = 3,
    ) -> None:
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        self.n_workers = n_workers
        self.max_attempts = max_attempts
        self._deliver = deliver
        self._ctx = _mp_context()
        self._lock = threading.Lock()
        self._pending: deque[_Assignment] = deque()  # simlint: ignore[SL006]
        self._workers: dict[int, _Worker] = {}
        self._next_worker_id = 0
        self._stopping = False
        self._monitor: Optional[threading.Thread] = None
        self._idle = threading.Event()
        self._idle.set()
        # -- counters (read via snapshot()) -------------------------------
        self.n_done = 0
        self.n_errors = 0
        self.n_requeues = 0
        self.n_respawns = 0

    # -- lifecycle -------------------------------------------------------

    def start(self) -> None:
        with self._lock:
            for _ in range(self.n_workers):
                self._spawn_locked()
        self._monitor = threading.Thread(
            target=self._monitor_loop, name="workerpool-monitor", daemon=True
        )
        self._monitor.start()

    def _spawn_locked(self) -> _Worker:
        worker_id = self._next_worker_id
        self._next_worker_id += 1
        job_r, job_w = self._ctx.Pipe(duplex=False)
        res_r, res_w = self._ctx.Pipe(duplex=False)
        process = self._ctx.Process(
            target=_worker_main,
            args=(worker_id, job_r, res_w),
            name=f"repro-worker-{worker_id}",
            daemon=True,
        )
        process.start()
        # Parent keeps the send side of jobs and the receive side of
        # results; the child's copies stay open in the child only.
        job_r.close()
        res_w.close()
        worker = _Worker(worker_id, process, job_w, res_r)
        self._workers[worker_id] = worker
        return worker

    def stop(self, drain: bool = True, timeout: Optional[float] = None) -> bool:
        """Stop the pool; with ``drain`` wait for queued + in-flight work.

        Returns True when everything drained (or immediately for
        ``drain=False``, which abandons queued work and terminates
        workers)."""
        drained = True
        if drain:
            drained = self.wait_idle(timeout)
        with self._lock:
            self._stopping = True
            workers = list(self._workers.values())
        for worker in workers:
            try:
                worker.job_conn.send(("stop",))
            except (OSError, BrokenPipeError):
                pass
        for worker in workers:
            worker.process.join(timeout=5.0)
            if worker.process.is_alive():  # pragma: no cover - defensive
                worker.process.terminate()
                worker.process.join(timeout=5.0)
        # The monitor may still be inside _on_death or waiting on these
        # connections: let it finish before closing anything.
        if self._monitor is not None:
            self._monitor.join(timeout=5.0)
        with self._lock:
            for worker in self._workers.values():
                self._close_locked(worker)
            self._workers.clear()
        return drained

    def wait_idle(self, timeout: Optional[float] = None) -> bool:
        """Block until no work is queued or in flight."""
        return self._idle.wait(timeout)

    # -- submission ------------------------------------------------------

    def submit(self, job_id: str, payload: dict, chaos_crash: bool = False) -> None:
        """Queue one job; it is assigned to the first idle worker."""
        with self._lock:
            if self._stopping:
                raise RuntimeError("pool is stopping")
            self._pending.append(_Assignment(job_id, payload, chaos_crash))
            self._idle.clear()
            self._dispatch_locked()

    def _dispatch_locked(self) -> None:
        for worker in self._workers.values():
            if not self._pending:
                break
            if worker.current is not None or not worker.process.is_alive():
                continue
            assignment = self._pending.popleft()
            assignment.attempts += 1
            try:
                worker.job_conn.send(
                    (
                        "job",
                        assignment.job_id,
                        assignment.payload,
                        assignment.chaos_crash and assignment.attempts == 1,
                    )
                )
            except (OSError, BrokenPipeError):
                # Dying worker: put the job back; the monitor will reap
                # the corpse, respawn, and redispatch.
                assignment.attempts -= 1
                self._pending.appendleft(assignment)
                continue
            worker.current = assignment

    def _maybe_idle_locked(self) -> None:
        if not self._pending and all(w.current is None for w in self._workers.values()):
            self._idle.set()

    # -- monitoring ------------------------------------------------------

    def _monitor_loop(self) -> None:
        while True:
            with self._lock:
                if self._stopping:
                    return
                conn_of = {w.result_conn: w for w in self._workers.values()}
                sentinel_of = {w.process.sentinel: w for w in self._workers.values()}
            try:
                ready = mp_wait(
                    list(conn_of) + list(sentinel_of), timeout=0.1
                )
            except OSError:  # pragma: no cover - teardown race
                continue
            # Results first: a worker that answered and then exited
            # cleanly must not look like a mid-job crash.
            for conn in ready:
                worker = conn_of.get(conn)  # type: ignore[call-overload]
                if worker is None:
                    continue
                try:
                    msg = worker.result_conn.recv()
                except (EOFError, OSError):
                    continue  # death: handled via the sentinel below
                self._on_result(worker, msg)
            for sentinel in ready:
                worker = sentinel_of.get(sentinel)  # type: ignore[call-overload]
                if worker is not None:
                    self._on_death(worker)

    def _on_result(self, worker: _Worker, msg: tuple) -> None:
        with self._lock:
            assignment = worker.current
            worker.current = None
            self._dispatch_locked()
            self._maybe_idle_locked()
        attempts = assignment.attempts if assignment is not None else 1
        if msg[0] == "done":
            _, job_id, result, wall_s = msg
            self.n_done += 1
            self._deliver(("done", job_id, result, worker.id, wall_s, attempts))
        else:
            _, job_id, tb_text = msg
            self.n_errors += 1
            self._deliver(("failed", job_id, tb_text, worker.id, attempts))

    def _on_death(self, worker: _Worker) -> None:
        with self._lock:
            if worker.id not in self._workers:
                return
            del self._workers[worker.id]
            self._close_locked(worker)
            assignment = worker.current
            worker.current = None
            events: list[tuple] = []
            if assignment is not None:
                if assignment.attempts >= self.max_attempts:
                    self.n_errors += 1
                    events.append(
                        (
                            "failed",
                            assignment.job_id,
                            f"worker {worker.id} died "
                            f"(attempt {assignment.attempts}/{self.max_attempts}, "
                            "giving up)",
                            worker.id,
                            assignment.attempts,
                        )
                    )
                else:
                    self.n_requeues += 1
                    self._pending.appendleft(assignment)
                    events.append(
                        ("requeue", assignment.job_id, worker.id, assignment.attempts)
                    )
            if not self._stopping:
                self.n_respawns += 1
                self._spawn_locked()
                self._dispatch_locked()
            self._maybe_idle_locked()
        for event in events:
            self._deliver(event)

    @staticmethod
    def _close_locked(worker: _Worker) -> None:
        # Only the thread that removes ``worker`` from ``_workers`` (under
        # the lock) closes its connections, so none is closed twice.
        worker.job_conn.close()
        worker.result_conn.close()

    # -- introspection ---------------------------------------------------

    def snapshot(self) -> dict:
        """Picklable pool state for the status endpoint."""
        with self._lock:
            workers = [
                {
                    "id": w.id,
                    "pid": w.process.pid,
                    "alive": w.process.is_alive(),
                    "job": w.current.job_id if w.current is not None else None,
                }
                for w in self._workers.values()
            ]
            return {
                "workers": workers,
                "queued": len(self._pending),
                "done": self.n_done,
                "errors": self.n_errors,
                "requeues": self.n_requeues,
                "respawns": self.n_respawns,
            }
