"""Run ``repro serve`` with a speed probe in it and in every worker it forks.

    python3 probed_serve.py SPEED_DIR serve --workers 2 --catalog ...

The coordinator and each forked child run one calibration slice
(``calibrate.py``) every ``INTERVAL_S`` on a ``SIGALRM`` and append
``<perf_counter> <slice seconds>`` to ``SPEED_DIR/coordinator`` or
``SPEED_DIR/<pid>``.  ``perf_counter`` reads the system's monotonic
clock, so ``service_mix.py`` can pick the slices that fall in a window
of its own and scale that window's times by the speed they saw.
"""

from __future__ import annotations

import atexit
import os
import signal
import sys
import time

# Run as a script, this file's directory is first on sys.path.
from calibrate import INTERVAL_S, slice_seconds

#: The coordinator's slice file in SPEED_DIR; workers' are named by pid.
COORDINATOR = "coordinator"


def _probe_this_process(path: str) -> None:
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
    clock, write = time.perf_counter, os.write

    def tick(signum, frame) -> None:
        t = clock()
        write(fd, b"%.6f %.9f\n" % (t, slice_seconds()))

    signal.signal(signal.SIGALRM, tick)
    signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)


def main() -> int:
    speed_dir = sys.argv[1]
    _probe_this_process(os.path.join(speed_dir, COORDINATOR))
    # Interpreter shutdown restores SIGALRM's default action, which would
    # kill the coordinator on the next tick: stop the timer first.
    atexit.register(signal.setitimer, signal.ITIMER_REAL, 0.0, 0.0)
    # Interval timers are not inherited across fork: each worker starts its own.
    os.register_at_fork(
        after_in_child=lambda: _probe_this_process(os.path.join(speed_dir, str(os.getpid())))
    )
    from repro.cli import main as repro_main

    return repro_main(sys.argv[2:])


if __name__ == "__main__":
    sys.exit(main())
