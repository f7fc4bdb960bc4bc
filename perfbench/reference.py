"""Reference tasks: fixed work that uses none of the program, timed in
the same run as its operations.

The host's speed drifts: for a minute or more at a time, a fresh
excite-iter process can take half as long again as in the minute before,
and a run of half a minute then lies wholly inside the slow or the
fast spell. The relative metrics divide each operation's latency by that
of a reference task timed just before it, so that a slow spell lengthens
both and cancels. Because the reference does not import the package, a
change to the program moves the operations and leaves the reference as
it was.

- For the CLI workloads the reference is a fresh interpreter importing
  NumPy and scipy.optimize (PROCESS_ARGV), the slice of the program's
  start-up that the drift slows most. Lighter references (an interpreter
  importing NumPy alone, or a Python loop inside the harness) did not
  follow the drift.
- For iterate-lib, whose operations run inside one process, it is
  in_process_task(): NumPy and Python work of the same kind as one
  excite.run() call, on fresh arrays.
"""

from __future__ import annotations

import sys
from time import perf_counter

PROCESS_ARGV = [sys.executable, "-c", "import numpy, scipy.optimize"]

_POINTS = 16001


def in_process_task():
    """Elementwise NumPy work on fresh arrays, a cumulative sum and a
    Python loop over a slice; about 5 ms. Returns a number so that no
    step can be skipped."""
    import numpy as np
    x = np.linspace(-4.0, 4.0, _POINTS)
    total = 0.0
    for k in range(1, 21):
        psi = np.exp(-0.5 * k * x * x)
        profile = np.cumsum(psi * x) * (x[1] - x[0])
        total += float((profile * psi).sum())
        for v in psi[:: _POINTS // 200]:
            total += v * 1e-9
    return total


def time_in_process(repeats):
    """Seconds of each of repeats reference tasks."""
    out = []
    for _ in range(repeats):
        t = perf_counter()
        in_process_task()
        out.append(perf_counter() - t)
    return out
