"""Print the table of the Sturm oracles of tests/oracles.py against the
program: eps_richardson and e_gd of the CLI's default quartic run (4001
nodes, tol 1e-15), and the box's closed forms.

The eps oracle reads S from a shooting solve on the finer of its two
grids; each column gives the oracle's Richardson value over a pair of
grids.  Where the difference falls ~16x a column the oracle's own h^4
error limits it; where it stays put, the program's.  tests/test_oracles.py
takes its tolerances from the 8001/4001 column.  Needs the test extras
(NumPy, SciPy) for the dense eps_2 reference.

    PYTHONPATH=src python scripts/oracle_agreement.py
"""

import math
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "tests"))

from excite_iter import cli  # noqa: E402
from excite_iter.excite import TrialFunction, run  # noqa: E402
from excite_iter.groundstate import (Grid, default_x_max,  # noqa: E402
                                     solve_groundstate_numeric,
                                     soluble_groundstate)
from excite_iter.potential import Quartic  # noqa: E402
from excite_iter.soluble import exact_epsilon  # noqa: E402
from oracles import (ground_energy, groundstate_gaps,  # noqa: E402
                     richardson)
from wells import dense_eigenvalues  # noqa: E402

COUPLINGS = (0.7, 1.0, 3.0, 8.0, 20.0, 40.0, 80.0, 120.0)
PAIRS = (4001, 8001, 16001)     # the fine grid of each pair


def program(g):
    gs = solve_groundstate_numeric(Quartic(g), Grid(default_x_max(g), 4001))
    trial = TrialFunction.saturating()
    report = run(gs, trial, max_iters=60, tol=1e-15)
    err, _ = cli._half_grid_error(gs, trial, 1.0, report)
    return gs.e_gd, report.eps + err


def rel(a, b):
    return f"{(a - b) / b:+.2e}"


def main():
    pairs = " | ".join(f"{n}/{(n + 1) // 2}" for n in PAIRS)
    print(f"| g | ε (program) | oracle − program, relative: ε at {pairs} "
          f"| E₀ at {pairs} | ε₂, oracle at 8001/4001 | ε₂ vs dense |")
    print("| --- " * (4 + 2 * len(PAIRS)) + "|")
    for g in COUPLINGS:
        e_gd, eps = program(g)
        x_max = default_x_max(g)
        k = 2 if g <= 8.0 else 1
        cells, e0_cells, oracle = [], [], {}
        for n in PAIRS:
            oracle[n] = groundstate_gaps(
                solve_groundstate_numeric(Quartic(g), Grid(x_max, n)), k)
            cells.append(rel(oracle[n][0], eps))
            e0 = richardson(ground_energy(g, x_max, n),
                            ground_energy(g, x_max, (n + 1) // 2))
            e0_cells.append(rel(e0, e_gd))
        eps2 = eps2_dense = "—"
        if k == 2:
            fine, coarse = (dense_eigenvalues(g, x_max, n, k=4)
                            for n in (4001, 2001))
            dense = richardson(fine[3] - fine[0], coarse[3] - coarse[0])
            eps2 = oracle[8001][1]
            eps2, eps2_dense = f"{eps2:.10g}", rel(eps2, dense)
        print(f"| {g:g} | {eps:.6g} | {' | '.join(cells)} "
              f"| {' | '.join(e0_cells)} | {eps2} | {eps2_dense} |")
    print()
    print("| δ | ε, oracle at 4001/2001 vs closed form "
          "| ε₂ vs 2π² − p²/2 |")
    print("| --- | --- | --- |")
    for delta in (0.1, 0.77, 1.5):
        eps, eps2 = groundstate_gaps(
            soluble_groundstate(delta, Grid(1.0, 4001)), 2)
        p = math.pi - delta
        print(f"| {delta:g} | {rel(eps, exact_epsilon(delta))} "
              f"| {rel(eps2, 2.0 * math.pi ** 2 - 0.5 * p * p)} |")


if __name__ == "__main__":
    main()
