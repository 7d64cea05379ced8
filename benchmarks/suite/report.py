"""Per-workload bookkeeping: operations, output checks, metrics."""

from __future__ import annotations

import os
import resource
import sys
import traceback
from pathlib import Path
from typing import Any, Callable

__all__ = ["Report", "child_env", "peak_rss_mb"]


def child_env(root: Path) -> dict:
    """Environment for a child interpreter importing repro from ``root/src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def peak_rss_mb() -> float:
    """Max RSS of this process or any waited-for descendant, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


class Report:
    """What one workload run attempted, what failed, and what was checked.

    An *operation* is a cell, a submission, a grid pass, or a coordinator
    drain.  A failed operation is counted, its traceback kept, and the run
    goes on.
    """

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.failures: list[dict] = []
        self.checks: list[dict] = []
        self.metrics: dict[str, float] = {}
        self.details: dict[str, Any] = {}

    def run_op(self, kind: str, label: str, fn: Callable[[], Any]) -> tuple[bool, Any]:
        """Run one operation; (True, value) or (False, None) if it raised."""
        self.attempted += 1
        try:
            return True, fn()
        except Exception:  # noqa: BLE001 - a failed op is recorded, not fatal
            self.fail_op(kind, label, traceback.format_exc())
            return False, None

    def fail_op(self, kind: str, label: str, text: str) -> None:
        self.failed += 1
        self.failures.append({"op": kind, "label": label, "error": text})
        first = text.strip().splitlines()[-1] if text.strip() else ""
        print(f"[{self.workload}] FAILED {kind} {label}: {first}", file=sys.stderr)

    def check(self, name: str, verdict: bool | None, detail: str = "") -> None:
        """Record a PASS/FAIL (or SKIP when ``verdict`` is None) line."""
        word = "SKIP" if verdict is None else "PASS" if verdict else "FAIL"
        self.checks.append({"check": name, "verdict": word, "detail": detail})
        print(f"[{self.workload}] {word} {name}" + (f" -- {detail}" if detail else ""),
              flush=True)

    @property
    def correct(self) -> bool:
        return all(c["verdict"] != "FAIL" for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": self.metrics,
            "checks": self.checks,
            "failures": self.failures,
            **self.details,
        }
