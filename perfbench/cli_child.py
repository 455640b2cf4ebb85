"""Run one positronium CLI command and time the calibration kernel while it runs.

    python3 perfbench/cli_child.py SAMPLES.json reproduce --json

Runs ``positronium.cli`` as ``python -m positronium.cli`` would, so the CLI
cold start is paid as a user pays it.  A timer signal every TICK_S
interrupts it to time calibration.kernel once; the (time, seconds) pairs
go to SAMPLES.json.  A reproduce operation lasts seconds, and the machine
speed during it scales its duration better than bursts taken around it.
The ticks cost about 2% of the run.
"""

from __future__ import annotations

import json
import runpy
import signal
import sys
import time

import calibration

TICK_S = calibration.INTERVAL_S


def main(argv: list[str]) -> int:
    samples_path, *cli_argv = argv
    samples: list[tuple[float, float]] = []

    def tick(signum, frame):
        start = time.perf_counter()
        calibration.kernel()
        end = time.perf_counter()
        samples.append((end, end - start))

    signal.signal(signal.SIGALRM, tick)
    signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
    sys.argv = [sys.argv[0], *cli_argv]
    try:
        runpy.run_module("positronium.cli", run_name="__main__", alter_sys=True)
        code = 0
    except SystemExit as exit_:
        code = exit_.code if isinstance(exit_.code, int) else int(exit_.code is not None)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
    sys.stdout.flush()
    with open(samples_path, "w", encoding="utf-8") as fh:
        json.dump(samples, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
