"""Host-speed calibration, timed in a process of its own.

The host's effective speed drifts by tens of percent within seconds.  The
worker asks for a calibration before the first request and after every
request, and run.py scales each request's time by the calibrations on either
side of it.  The calibration runs in this separate process, which imports
numpy but not gle_spectra, so that nothing a request leaves behind in the
worker (a larger heap, warm or evicted caches of its own, threads it owns)
enters the estimate through the process that times it.

Protocol: every line read from standard input asks for one calibration, and
the seconds it took are written back as one line.  The process ends when
standard input closes.

Usage: python3 perfbench/calibrator.py
"""

from concurrent.futures import ThreadPoolExecutor
import math
import os
import subprocess
import sys
import time

import numpy as np


def _task(base):
    acc = 0
    for i in range(30_000):
        acc += i * i
    a = base
    for _ in range(3):
        a = np.sin(a) + np.sqrt(a)


def calibrate(pool, cores):
    """Seconds for a fixed mix of interpreter and numpy elementwise work.

    The task runs once on one thread and once on every core at the same
    time, as the grid-sweep thread pool and BLAS do, and the result is the
    geometric mean of the two; each is the minimum of three short samples, so
    that a passing stall stays out of the estimate.
    """
    base = np.linspace(0.0, 1.0, 100_000)
    one, every = [], []
    for _ in range(3):
        t0 = time.perf_counter()
        _task(base)
        t1 = time.perf_counter()
        list(pool.map(_task, [base] * cores))
        one.append(t1 - t0)
        every.append(time.perf_counter() - t1)
    return math.sqrt(min(one) * min(every))


class Calibrator:
    """The calibration process, as a context manager; ``measure()`` returns
    the seconds of one calibration."""

    def __init__(self):
        self._proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def measure(self):
        self._proc.stdin.write("\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError(f"calibration process exited with {self._proc.wait()}")
        return float(line)

    def close(self):
        if self._proc.stdin:
            self._proc.stdin.close()
        try:
            self._proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def main():
    cores = os.cpu_count() or 1
    with ThreadPoolExecutor(cores) as pool:
        for _ in sys.stdin:
            sys.stdout.write(f"{calibrate(pool, cores)!r}\n")
            sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
