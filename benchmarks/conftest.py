"""Shared benchmark fixtures.

Every bench regenerates one paper artifact (table or figure): it runs the
simulation, prints the paper-style rows/series, writes them to
``benchmarks/results/<name>.txt``, and asserts the qualitative *shape*
the paper reports (who wins, roughly by how much, where crossovers sit).

The pytest-benchmark timer wraps one full simulation run
(``rounds=1``) -- wall time of the simulator is the quantity tracked, the
paper-style numbers come from simulated time and are printed/archived.
"""

from __future__ import annotations

import os
import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

# Anchor the result catalog at the repo root so cold/warm runs share it
# regardless of the pytest invocation directory.  Benches fan their
# independent cells through repro.runner.parallel.run_experiments, which
# catalogues each cell here (delete the directory to force recomputation).
os.environ.setdefault(
    "REPRO_SERVICE_CATALOG",
    str(pathlib.Path(__file__).resolve().parent.parent / ".service_catalog"),
)


@pytest.fixture(scope="session")
def results_dir() -> pathlib.Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture
def report(results_dir, capsys):
    """Print a result block and persist it to results/<name>.txt."""

    def _report(name: str, text: str) -> None:
        with capsys.disabled():
            print(f"\n===== {name} =====\n{text}\n")
        (results_dir / f"{name}.txt").write_text(text + "\n")

    return _report


def run_once(benchmark, fn):
    """Run ``fn`` exactly once under the benchmark timer; return its value."""
    box = {}

    def wrapper():
        box["result"] = fn()

    benchmark.pedantic(wrapper, rounds=1, iterations=1)
    return box["result"]
