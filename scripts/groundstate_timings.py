"""Print the best-of-15 wall times of building a ground state with the
active kernel backend: solve_groundstate_numeric for the quartic at
g = 3 and 8 (each on its default domain edge) and soluble_groundstate
at delta = 0.1, at 4001, 16001 and 64001 nodes.

    PYTHONPATH=src python scripts/groundstate_timings.py
"""

import time

from excite_iter import kernels
from excite_iter.groundstate import (Grid, default_x_max,
                                     solve_groundstate_numeric,
                                     soluble_groundstate)
from excite_iter.potential import Quartic

POINTS = (4001, 16001, 64001)
REPEATS = 15
CASES = (
    ("solve_groundstate_numeric", "g = 3",
     lambda n: solve_groundstate_numeric(Quartic(3.0),
                                         Grid(default_x_max(3.0), n))),
    ("solve_groundstate_numeric", "g = 8",
     lambda n: solve_groundstate_numeric(Quartic(8.0),
                                         Grid(default_x_max(8.0), n))),
    ("soluble_groundstate", "δ = 0.1",
     lambda n: soluble_groundstate(0.1, Grid(1.0, n))),
)


def best_ms(build, n):
    best = float("inf")
    for _ in range(REPEATS):
        t = time.perf_counter()
        build(n)
        best = min(best, time.perf_counter() - t)
    return best * 1e3


def main():
    print(f"backend: {kernels.BACKEND}; best of {REPEATS}, ms")
    print("| function | case | " + " | ".join(f"{n} nodes" for n in POINTS)
          + " |")
    print("| --- " * (2 + len(POINTS)) + "|")
    for function, case, build in CASES:
        cells = " | ".join(f"{best_ms(build, n):.3g}" for n in POINTS)
        print(f"| `{function}` | {case} | {cells} |")


if __name__ == "__main__":
    main()
