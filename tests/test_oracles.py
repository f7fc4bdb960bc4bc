"""The program against oracles with no cancellation (tests/oracles.py):
eps, eps_2 and E_0 of the quartic well at couplings from 0.7 to 120, and
the box's closed forms as a check of the eps oracle itself."""

import functools
import math

import pytest

from excite_iter import cli
from excite_iter.excite import TrialFunction, run
from excite_iter.groundstate import (Grid, default_x_max,
                                     solve_groundstate_numeric,
                                     soluble_groundstate)
from excite_iter.potential import Quartic
from excite_iter.soluble import exact_epsilon
from oracles import ground_energy, groundstate_gaps, richardson
from wells import dense_eigenvalues

#: nodes of the oracles' fine grid; the coarse one is every other node
ORACLE_POINTS = 8001

# g: (tolerance on eps, tolerance on E_0), both relative.  Measured with
# scripts/oracle_agreement.py: eps within 3.1e-14 (g = 0.7), 2.3e-15 (1),
# 5.4e-15 (3), 6.5e-13 (8), 1.3e-11 (20), 1.0e-10 (40), 2.1e-9 (80) and
# 4.9e-9 (120); E_0 within 3.4e-13 up to g = 40, 1.5e-12 at 80 and
# 1.4e-12 at 120.  Up to g = 20 the gap is mostly the oracle's own h^4
# error.  At 40, 80 and 120 it falls only to 2.7e-11, 8.4e-10 and 2.1e-9
# on 16001/8001 oracle nodes: there the error of eps_richardson itself
# limits it.
QUARTIC = {0.7: (2e-13, 1e-12), 1.0: (2e-13, 1e-12), 3.0: (2e-13, 1e-12),
           8.0: (5e-12, 1e-12), 20.0: (1e-10, 1e-12),
           40.0: (8e-10, 1e-12), 80.0: (1.5e-8, 5e-12),
           120.0: (3e-8, 5e-12)}

#: the couplings at which eps_2 is checked as well
EPS2_COUPLINGS = (1.0, 3.0, 8.0)


@functools.cache
def _oracle_gaps(g):
    """[eps] or, at EPS2_COUPLINGS, [eps, eps_2] by the gauge oracle."""
    gs = solve_groundstate_numeric(Quartic(g),
                                   Grid(default_x_max(g), ORACLE_POINTS))
    return groundstate_gaps(gs, 2 if g in EPS2_COUPLINGS else 1)


@functools.cache
def _program(g):
    """(e_gd, eps_richardson) of the CLI's default quartic run at g,
    iterated to tol 1e-15."""
    gs = solve_groundstate_numeric(Quartic(g), Grid(default_x_max(g), 4001))
    trial = TrialFunction.saturating()
    report = run(gs, trial, max_iters=60, tol=1e-15)
    assert report.status == "converged"
    err, reason = cli._half_grid_error(gs, trial, 1.0, report)
    assert reason is None
    return gs.e_gd, report.eps + err


@pytest.mark.parametrize("g", QUARTIC)
def test_eps_richardson_meets_the_gauge_oracle(g):
    eps = _oracle_gaps(g)[0]
    assert abs(_program(g)[1] - eps) <= QUARTIC[g][0] * eps


@pytest.mark.parametrize("g", QUARTIC)
def test_shooting_e_gd_meets_the_finite_difference_oracle(g):
    x_max = default_x_max(g)
    e0 = richardson(ground_energy(g, x_max, ORACLE_POINTS),
                    ground_energy(g, x_max, (ORACLE_POINTS + 1) // 2))
    assert abs(_program(g)[0] - e0) <= QUARTIC[g][1] * e0


@pytest.mark.parametrize("g", EPS2_COUPLINGS)
def test_eps2_oracle_meets_the_dense_spectrum(g):
    # the dense eigensolver is good to ~1e-10 here: its absolute error
    # is the roundoff of a matrix of norm 4/h^2.  Measured within 3.3e-11
    x_max = default_x_max(g)
    fine, coarse = (dense_eigenvalues(g, x_max, n, k=4)
                    for n in (4001, 2001))
    eps2 = richardson(fine[3] - fine[0], coarse[3] - coarse[0])
    assert abs(_oracle_gaps(g)[1] - eps2) <= 3e-10 * eps2


@pytest.mark.parametrize("delta, tolerance", [
    (0.1, 1e-9), (0.77, 2e-13), (1.5, 2e-13)])
def test_gauge_oracle_gives_the_box_closed_forms(delta, tolerance):
    # on the hard wall, 4001/2001 nodes: eps within 2.2e-10 (the spike's
    # boundary layer, delta = 0.1), 1.5e-14 and 5.0e-14; eps_2 =
    # 2 pi^2 - p^2/2 within 1.8e-11, 3.5e-14 and 1.7e-14
    eps, eps2 = groundstate_gaps(
        soluble_groundstate(delta, Grid(1.0, 4001)), 2)
    p = math.pi - delta
    assert abs(eps - exact_epsilon(delta)) <= tolerance * eps
    assert (abs(eps2 - (2.0 * math.pi ** 2 - 0.5 * p * p))
            <= tolerance * eps2)
