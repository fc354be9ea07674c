"""Fixed calibration computations that never touch the package.

The benchmark runs on shared machines where other tenants slow the CPU by
up to 1.6x for seconds to minutes at a time (CPU time stretches as much as
wall time, so it is not descheduling).  Timing a canary between ops
measures the machine's current speed, and run.py scales op times by it.

Two canaries, one per kind of op:

- interpreter: small numpy array kernels (a complex Horner loop over one
  720-point ring, 512-term cumulative products and sums) and plain
  interpreter work (float arithmetic, dict traffic), about half each.  It
  is timed three times in a row and the fastest run counts, so the caches
  the preceding op left cold do not count.
- process: one `python -I -c "import numpy"` process, for ops that are
  processes themselves.  Right after a child process exits the parent stays
  slow for milliseconds, so an in-process canary cannot time those ops.
  One canary process varies about as much as one op, so run.py scales
  process ops by the median over all of a run's canary processes.
"""
import subprocess
import sys
import time

import numpy as np

_RING = 0.9 * np.exp(2j * np.pi * np.arange(720) / 720)
_COEFFS = np.linspace(1.0, 0.01, 60)
_N = np.arange(2.0, 514.0)


def _kernels():
    acc = np.zeros_like(_RING)
    for c in _COEFFS:
        acc = acc * _RING + c
    total = float(acc.real.sum())
    for q in (0.3, 0.6, 0.9):
        terms = np.cumprod(q * (_N + 1.5) / _N) * (_N - 1.0)
        total += float(np.cumsum(terms)[-1])
    return total


def _interpreter():
    table = {}
    total = 0.0
    for i in range(1000):
        key = i % 17
        total += table.get(key, 0.0) * 0.5 + i / (key + 1.0)
        table[key] = total
    return total


def interpreter_canary() -> float:
    """Seconds of the fastest of three runs of the in-process canary."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        _kernels()
        _interpreter()
        best = min(best, time.perf_counter() - t0)
    return best


def process_canary() -> float:
    """Wall seconds of one interpreter process that imports numpy."""
    t0 = time.perf_counter()
    subprocess.run(
        [sys.executable, "-I", "-c", "import numpy"], check=True,
        stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, timeout=60,
    )
    return time.perf_counter() - t0


# name -> (canary, its time on an idle 2-vCPU Intel Xeon virtual machine in seconds,
#          op seconds between two canary runs, how many recent canary times
#          scale an op, 0 for all of the run's)
CANARIES = {
    "interpreter": (interpreter_canary, 4.0e-4, 0.02, 9),
    "process": (process_canary, 0.13, 0.5, 0),
}
