"""Blocking stdlib client for the coordinator's line-JSON API.

Used by the ``repro submit`` / ``repro status`` CLI, the service-level
tests, and the CI smoke harness.  One TCP connection per request keeps
the client trivially correct; a ``submit(wait=True)`` call holds its
connection open until the coordinator answers with the final record.
"""

from __future__ import annotations

import json
import socket
import time
from typing import Any, Optional, Union

from repro.service.schemas import ExperimentSubmission

__all__ = ["ServiceClient", "ServiceError", "wait_until_ready"]

#: How often and for how long :func:`wait_until_ready` pings.
POLL_S = 0.05
READY_DEADLINE_S = 30.0


class ServiceError(RuntimeError):
    """The coordinator was unreachable or answered garbage."""


class ServiceClient:
    """Talk line-JSON to a running coordinator."""

    def __init__(
        self, host: str = "127.0.0.1", port: int = 0, timeout: float = 600.0
    ) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout

    def request(self, payload: dict, timeout: Optional[float] = None) -> dict:
        """Send one request object, return the one reply object."""
        try:
            with socket.create_connection(
                (self.host, self.port), timeout=timeout or self.timeout
            ) as conn:
                conn.sendall(json.dumps(payload).encode() + b"\n")
                with conn.makefile("rb") as reader:
                    line = reader.readline()
        except OSError as exc:
            raise ServiceError(
                f"coordinator at {self.host}:{self.port} unreachable: {exc}"
            ) from exc
        if not line:
            raise ServiceError("coordinator closed the connection mid-request")
        try:
            response = json.loads(line)
        except ValueError as exc:
            raise ServiceError(f"malformed coordinator reply: {line!r}") from exc
        if not isinstance(response, dict):
            raise ServiceError(f"malformed coordinator reply: {response!r}")
        return response

    # -- operations ------------------------------------------------------

    def ping(self) -> dict:
        return self.request({"op": "ping"})

    def submit(
        self,
        submission: Union[ExperimentSubmission, dict],
        wait: bool = False,
        chaos_crash_worker: bool = False,
        timeout: Optional[float] = None,
    ) -> dict:
        raw = (
            submission.to_dict()
            if isinstance(submission, ExperimentSubmission)
            else submission
        )
        request: dict[str, Any] = {"op": "submit", "submission": raw, "wait": wait}
        if chaos_crash_worker:
            request["chaos_crash_worker"] = True
        return self.request(request, timeout=timeout)

    def status(self) -> dict:
        response = self.request({"op": "status"})
        if not response.get("ok"):
            raise ServiceError(f"status failed: {response}")
        return response["status"]

    def result(self, fingerprint: str) -> dict:
        return self.request({"op": "result", "fingerprint": fingerprint})

    def fingerprints(self) -> list[str]:
        response = self.request({"op": "list"})
        if not response.get("ok"):
            raise ServiceError(f"list failed: {response}")
        return response["fingerprints"]

    def shutdown(self, drain: bool = True) -> dict:
        return self.request({"op": "shutdown", "drain": drain})


def wait_until_ready(host: str, port: int) -> ServiceClient:
    """Poll until a coordinator answers ``ping`` (every ``POLL_S``, for at
    most ``READY_DEADLINE_S``); returns a client."""
    client = ServiceClient(host, port)
    deadline = time.monotonic() + READY_DEADLINE_S
    last: Optional[BaseException] = None
    while time.monotonic() < deadline:
        try:
            client.ping()
            return client
        except ServiceError as exc:
            last = exc
            time.sleep(POLL_S)
    raise ServiceError(
        f"coordinator at {host}:{port} not ready after {READY_DEADLINE_S}s: {last}"
    )
