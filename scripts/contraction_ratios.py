"""Print the README table of how fast eps_n converges: r = eps/eps_2, the
measured delta_n/delta_{n-1}, and the steps to a relative tolerance of
1e-15.

The iteration map K = L^-1 has top eigenvalues 1/eps and 1/eps_2 on odd
functions, so the error of eps_n falls by r = eps/eps_2 a step.  r comes
from the closed forms (soluble box, harmonic wall) or from the dense
finite-difference oracle of tests/wells.py (quartic); the measured ratio
is tests/wells.py's settled_ratio of a run on 2001 nodes with anchor 1,
the CLI's default trial (saturating for the harmonic wall), tol 0 and 40
steps.  Needs the test extras (NumPy, SciPy).

    PYTHONPATH=src python scripts/contraction_ratios.py
"""

import math
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "tests"))

from excite_iter.excite import TrialFunction, run  # noqa: E402
from excite_iter.groundstate import (Grid, default_x_max,  # noqa: E402
                                     solve_groundstate_numeric,
                                     soluble_groundstate)
from excite_iter.potential import Quartic  # noqa: E402
from excite_iter.soluble import exact_epsilon  # noqa: E402
from wells import dense_eigenvalues, harmonic, settled_ratio  # noqa: E402

N_POINTS = 2001


def cases():
    """(label, ground state, trial, eps, eps_2) of each row."""
    for g in (0.7, 1.0, 2.0, 3.0, 5.0, 8.0, 12.0):
        x_max = default_x_max(g)
        e = dense_eigenvalues(g, x_max, N_POINTS, k=4)
        yield (f"quartic g={g:g}",
               solve_groundstate_numeric(Quartic(g), Grid(x_max, N_POINTS)),
               TrialFunction.saturating(), e[1] - e[0], e[3] - e[0])
    for delta in (0.3, 0.77, 1.5):
        p = math.pi - delta
        yield (f"soluble δ={delta:g}",
               soluble_groundstate(delta, Grid(1.0, N_POINTS)),
               TrialFunction.linear(), exact_epsilon(delta),
               2.0 * math.pi ** 2 - 0.5 * p * p)
    yield ("harmonic wall", harmonic(8.0, N_POINTS),
           TrialFunction.saturating(), 1.0, 3.0)


def main():
    print("| case | ε | ε₂ | r = ε/ε₂ | measured δ_n/δ_{n−1} (n) "
          "| steps to tol 1e-15 |")
    print("| --- | --- | --- | --- | --- | --- |")
    for label, gs, trial, eps, eps2 in cases():
        r = eps / eps2
        settled = settled_ratio(run(gs, trial, max_iters=40, tol=0.0))
        measured = ("—" if settled is None
                    else f"{settled[1]:.4g} ({settled[0]})")
        report = run(gs, trial, max_iters=60, tol=1e-15)
        steps = len(report.eps_sequence)
        if report.status != "converged":
            steps = f"{steps} ({report.status})"
        print(f"| {label} | {eps:.6g} | {eps2:.6g} | {r:.4g} | {measured} "
              f"| {steps} |")


if __name__ == "__main__":
    main()
