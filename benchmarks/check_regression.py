"""CI benchmark-regression gate for the simulation kernel.

Compares the kernel's event-loop throughput against the committed
baseline in ``benchmarks/results/BENCH_kernel.baseline.json`` and exits
non-zero when it has regressed more than the allowed tolerance (25% by
default).  Two rows are gated, each against its own baseline key:

- ``events_per_sec``: the bare yield-Timeout loop;
- ``events_per_sec_mixed``: the ``Store`` put/get ping-pong, which runs
  through the general dispatch path (event callbacks, process resume,
  ``succeed``) rather than the Timeout fast path.

A row whose key the baseline lacks is skipped.  Run in CI as::

    PYTHONPATH=src python benchmarks/check_regression.py

Noise handling, because CI runners are shared and vary in speed:

- each measured figure is the *median of three* independent bench runs,
  not a single sample;
- the baseline records a *calibration rate* -- a fixed pure-Python loop
  measured on the baseline host -- and the gate re-measures it locally,
  scaling the baseline by ``local_calibration / baseline_calibration``.
  A runner that is half as fast overall gets a proportionally lower
  bar, so the gate tracks kernel regressions, not host speed.

Maintenance::

    python benchmarks/check_regression.py --update-baseline   # re-pin
    python benchmarks/check_regression.py --measured 5e5      # synthetic
                                          # figure, no bench run (tests)

``--measured`` skips both the bench and the calibration scaling: the
given raw events/sec is compared straight against every gated baseline
figure.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import sys
import time

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
BASELINE_PATH = RESULTS_DIR / "BENCH_kernel.baseline.json"
# Generated verdicts go under benchmarks/out/ (gitignored wholesale);
# benchmarks/results/ holds only deliberately committed baselines and
# archived figures, so a gate run can never dirty the tree.
REPORT_PATH = pathlib.Path(__file__).parent / "out" / "BENCH_regression.json"

DEFAULT_TOLERANCE = 0.25
MEDIAN_OF = 3


def calibration_rate(n: int = 2_000_000) -> float:
    """Ops/sec of a fixed pure-Python integer loop.

    Both this loop and the simulator's event loop are interpreter-bound,
    so their ratio is roughly stable across hosts and Python versions --
    that ratio is what the gate actually checks.
    """
    best = 0.0
    for _ in range(3):
        t0 = time.perf_counter()
        x = 0
        for i in range(n):
            x += i & 7
        dt = time.perf_counter() - t0
        best = max(best, n / dt)
    return best


#: Gated rows, each a key of the baseline and of bench_kernel_micro's output.
GATED = ("events_per_sec", "events_per_sec_mixed")


def measure_sample(key: str) -> float:
    """One bench run of the gated row ``key``."""
    import bench_kernel_micro as bench

    if key == "events_per_sec":
        return bench.measure_events_per_sec(repeats=1)
    return bench.measure_mixed_events_per_sec()


def measure_medians(keys=GATED) -> dict:
    """Median of three independent bench runs for each gated row."""
    return {
        key: statistics.median(measure_sample(key) for _ in range(MEDIAN_OF)) for key in keys
    }


def load_baseline(path: pathlib.Path) -> dict:
    with path.open() as f:
        data = json.load(f)
    if "events_per_sec" not in data:
        raise ValueError(f"{path}: missing 'events_per_sec'")
    return data


def write_baseline(path: pathlib.Path, measured: dict, calibration: float) -> None:
    payload = {
        **measured,
        "calibration_ops_per_sec": calibration,
        "tolerance": DEFAULT_TOLERANCE,
        "bench": {
            "events_per_sec": "benchmarks/bench_kernel_micro.py::measure_events_per_sec",
            "events_per_sec_mixed": (
                "benchmarks/bench_kernel_micro.py::measure_mixed_events_per_sec"
            ),
        },
        "method": f"median of {MEDIAN_OF} runs, baseline scaled by local calibration rate",
    }
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def check(
    measured: float,
    baseline: dict,
    tolerance: float,
    local_calibration: float | None = None,
    key: str = "events_per_sec",
) -> tuple[bool, dict]:
    """Gate ``measured`` against ``baseline[key]``; returns (ok, report)."""
    reference = float(baseline[key])
    scale = 1.0
    base_cal = baseline.get("calibration_ops_per_sec")
    if local_calibration is not None and base_cal:
        scale = local_calibration / float(base_cal)
    threshold = reference * scale * (1.0 - tolerance)
    ok = measured >= threshold
    report = {
        "measured_events_per_sec": measured,
        "baseline_events_per_sec": reference,
        "calibration_scale": scale,
        "scaled_baseline": reference * scale,
        "tolerance": tolerance,
        "threshold": threshold,
        "ok": ok,
    }
    return ok, report


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "--baseline",
        type=pathlib.Path,
        default=BASELINE_PATH,
        help=f"baseline JSON (default {BASELINE_PATH})",
    )
    ap.add_argument(
        "--tolerance",
        type=float,
        default=None,
        help="allowed fractional drop (default: baseline's, else 0.25)",
    )
    ap.add_argument(
        "--measured",
        type=float,
        default=None,
        metavar="EVENTS_PER_SEC",
        help="use this raw figure instead of running the bench "
        "(synthetic tests; disables calibration scaling)",
    )
    ap.add_argument(
        "--update-baseline",
        action="store_true",
        help="re-measure and overwrite the baseline file, then exit 0",
    )
    args = ap.parse_args(argv)

    sys.path.insert(0, str(pathlib.Path(__file__).parent))

    if args.update_baseline:
        measured = measure_medians()
        cal = calibration_rate()
        write_baseline(args.baseline, measured, cal)
        rates = ", ".join(f"{k} {v:,.0f}" for k, v in measured.items())
        print(f"baseline updated: {rates} events/sec "
              f"(calibration {cal:,.0f} ops/sec) -> {args.baseline}")
        return 0

    baseline = load_baseline(args.baseline)
    tolerance = args.tolerance
    if tolerance is None:
        tolerance = float(baseline.get("tolerance", DEFAULT_TOLERANCE))
    keys = [key for key in GATED if key in baseline]

    if args.measured is not None:
        measured, local_cal = dict.fromkeys(keys, args.measured), None
    else:
        measured = measure_medians(keys)
        local_cal = calibration_rate()

    rows = {key: check(measured[key], baseline, tolerance, local_cal, key)[1] for key in keys}
    ok = all(row["ok"] for row in rows.values())

    try:
        REPORT_PATH.parent.mkdir(exist_ok=True)
        REPORT_PATH.write_text(
            json.dumps({"ok": ok, "rows": rows}, indent=2, sort_keys=True) + "\n"
        )
    except OSError:
        pass  # the verdict matters, the artifact is best-effort

    for key, report in rows.items():
        print(f"{key}:")
        print(f"        measured: {report['measured_events_per_sec']:>14,.0f} events/sec")
        print(f"        baseline: {report['baseline_events_per_sec']:>14,.0f} events/sec")
        if report["calibration_scale"] != 1.0:
            print(f" scaled baseline: {report['scaled_baseline']:>14,.0f} events/sec "
                  f"(host calibration x{report['calibration_scale']:.2f})")
        print(f"       threshold: {report['threshold']:>14,.0f} events/sec "
              f"(-{tolerance:.0%})")
        print(f"         verdict: {'PASS' if report['ok'] else 'FAIL: kernel regressed'}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
