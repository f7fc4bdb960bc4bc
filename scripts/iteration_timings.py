"""Print the best-of wall times of the excitation iteration with the
active kernel backend: one iterate_once step into a reused out, and a
default excite.run (8 steps at most), from the linear trial at anchor
x0 = 1, for the iterate-lib cases of the benchmark (soluble delta = 0.1,
quartic g = 3 and g = 8, each on its default domain edge) at 4001, 16001
and 64001 nodes.  A step is timed over BATCH calls at a time.

    PYTHONPATH=src python scripts/iteration_timings.py
"""

import time

from excite_iter import kernels
from excite_iter.excite import IterationState, TrialFunction, iterate_once, run
from excite_iter.groundstate import (Grid, default_x_max,
                                     solve_groundstate_numeric,
                                     soluble_groundstate)
from excite_iter.kernels import zeros
from excite_iter.potential import Quartic

POINTS = (4001, 16001, 64001)
REPEATS = 15
BATCH = 20
CASES = (
    ("soluble δ = 0.1", lambda n: soluble_groundstate(0.1, Grid(1.0, n))),
    ("quartic g = 3", lambda n: solve_groundstate_numeric(
        Quartic(3.0), Grid(default_x_max(3.0), n))),
    ("quartic g = 8", lambda n: solve_groundstate_numeric(
        Quartic(8.0), Grid(default_x_max(8.0), n))),
)


def best_us(call, batch):
    """The least wall time of one call, over REPEATS batches of batch
    calls, in µs."""
    best = float("inf")
    for _ in range(REPEATS):
        t = time.perf_counter()
        for _ in range(batch):
            call()
        best = min(best, (time.perf_counter() - t) / batch)
    return best * 1e6


def timings(gs):
    """(µs of one step, µs of one run) on the ground state gs."""
    trial = TrialFunction.linear()
    prev = IterationState(chi=trial.sample(gs.grid))
    out = zeros(gs.grid.n_points)
    step = best_us(lambda: iterate_once(gs, prev, 1.0, out=out), BATCH)
    return step, best_us(lambda: run(gs, trial, anchor_x0=1.0), 1)


def main():
    print(f"backend: {kernels.BACKEND}; best of {REPEATS}, µs")
    print("| function | case | " + " | ".join(f"{n} nodes" for n in POINTS)
          + " |")
    print("| --- " * (2 + len(POINTS)) + "|")
    for case, build in CASES:
        cells = [timings(build(n)) for n in POINTS]
        for k, function in enumerate(("iterate_once", "run")):
            row = " | ".join(f"{c[k]:.3g}" for c in cells)
            print(f"| `{function}` | {case} | {row} |")


if __name__ == "__main__":
    main()
