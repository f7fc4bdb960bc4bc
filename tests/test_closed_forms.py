"""The iteration on wells with closed-form answers: exact eps and chi on
soft walls, the true error of the half-grid estimate, the rate at which
eps_n converges, and the geometric tail as the error of eps_n."""

import math

import numpy as np
import pytest

from excite_iter import cli
from excite_iter.excite import TrialFunction, run
from excite_iter.groundstate import (Grid, default_x_max,
                                     solve_groundstate_numeric,
                                     soluble_groundstate)
from excite_iter.potential import Quartic
from excite_iter.soluble import exact_epsilon
from wells import cosh_well, dense_eigenvalues, harmonic, settled_ratio

# (a, x_max) of the cosh well: each x_max puts the weight e^{-2(S - S_min)}
# far below e^{-100} at the edge, and 0.5 and 1 on nodes of 2001 and 4001
COSH_WELLS = [(0.5, 5.0), (0.1, 5.0), (1e-2, 6.25), (1e-4, 8.0),
              (1e-6, 10.0)]

TRIALS = [TrialFunction.linear(), TrialFunction.saturating()]


def _exact(a, x_max, n_points):
    """(ground state, eps, chi) of the cosh well, or with a None of the
    harmonic wall, both on x_max and n_points."""
    if a is None:
        gs = harmonic(x_max, n_points)
        return gs, 1.0, np.asarray(gs.grid.nodes())
    gs = cosh_well(a, x_max, n_points)
    return gs, 4.0 * a, np.tanh(np.asarray(gs.grid.nodes()))


CASES = [*COSH_WELLS, (None, 8.0)]
CASE_IDS = [f"cosh-{a:g}" for a, _ in COSH_WELLS] + ["harmonic"]


@pytest.mark.parametrize("a, x_max", CASES, ids=CASE_IDS)
def test_eps_and_chi_are_the_closed_forms(a, x_max):
    # on 4001 nodes eps is within 6.3e-13 of 4a (a = 0.5) and chi within
    # 6.5e-7 of tanh x, an h^4 error that grows into the tail; compared
    # where the weight is above e^{-100}, and chi relative to the anchor
    gs, eps, chi = _exact(a, x_max, 4001)
    s = np.asarray(gs.s)
    kept = 2.0 * (s - s.min()) < 100.0
    for trial in TRIALS:
        for anchor in (0.5, 1.0):
            report = run(gs, trial, anchor_x0=anchor, max_iters=60,
                         tol=1e-15)
            assert report.status == "converged"
            assert abs(report.eps - eps) <= 1e-12 * eps
            got = np.asarray(report.states[-1].chi)
            i0 = gs.grid.index_of(anchor)
            assert np.allclose((got / got[i0])[kept],
                               (chi / chi[i0])[kept], rtol=1e-6, atol=1e-6)


@pytest.mark.parametrize("a, x_max", CASES, ids=CASE_IDS)
def test_half_grid_estimate_meets_the_true_error(a, x_max):
    # the CLI's estimate: the 2001-node run takes the 4001-node run's
    # steps with no stopping test, and e = (eps_h - eps_2h) / 15.  Where
    # the true error is above 1e-13 (a = 0.5 and 0.1) e is within 0.7 %
    # of it; everywhere eps + e is within 1.8e-15 of the closed form
    fine, eps, _ = _exact(a, x_max, 4001)
    coarse = _exact(a, x_max, 2001)[0]
    for trial in TRIALS:
        for anchor in (0.5, 1.0):
            report = run(fine, trial, anchor_x0=anchor, max_iters=60,
                         tol=1e-15)
            eps_2h = run(coarse, trial, anchor_x0=anchor,
                         max_iters=len(report.eps_sequence), tol=0.0).eps
            estimate = (report.eps - eps_2h) / 15.0
            true = eps - report.eps
            if abs(true) > 1e-13 * eps:
                assert 0.99 <= estimate / true <= 1.01
            assert abs(report.eps + estimate - eps) <= 5e-15 * eps


def _soluble(delta):
    """The spike in a box on 2001 nodes, with eps/eps_2: the box's odd
    levels above the ground state p^2/2 are pi^2/2 and 2 pi^2."""
    p = math.pi - delta
    return (soluble_groundstate(delta, Grid(1.0, 2001)),
            TrialFunction.linear(),
            exact_epsilon(delta) / (2.0 * math.pi ** 2 - 0.5 * p * p))


def _quartic(g):
    """The quartic well on 2001 nodes, with eps/eps_2 from the dense
    oracle's four lowest levels."""
    x_max = default_x_max(g)
    e = dense_eigenvalues(g, x_max, 2001, k=4)
    return (solve_groundstate_numeric(Quartic(g), Grid(x_max, 2001)),
            TrialFunction.saturating(), (e[1] - e[0]) / (e[3] - e[0]))


# measured at the step settled_ratio picks, the ratio is within 0.03 % of
# r on every closed form and at g <= 2, and 2.8 % (g = 3, step 9) and
# 3.2 % (g = 5, step 6) from it: at g >= 3, eps_2/eps_3 is nearer 1, and
# the rounding floor comes before the ratio has settled
RATE_CASES = {
    "soluble-0.3": (lambda: _soluble(0.3), 0.002),
    "soluble-0.77": (lambda: _soluble(0.77), 0.002),
    "soluble-1.5": (lambda: _soluble(1.5), 0.002),
    "harmonic": (lambda: (harmonic(8.0, 2001), TrialFunction.saturating(),
                          1.0 / 3.0), 0.002),
    "quartic-0.7": (lambda: _quartic(0.7), 0.002),
    "quartic-1": (lambda: _quartic(1.0), 0.002),
    "quartic-2": (lambda: _quartic(2.0), 0.002),
    "quartic-3": (lambda: _quartic(3.0), 0.05),
    "quartic-5": (lambda: _quartic(5.0), 0.05),
}


@pytest.mark.parametrize("case", RATE_CASES)
def test_eps_n_converges_at_the_rate_eps_over_eps2(case):
    # the paper's "converges rapidly when g is not too small": K = L^-1
    # has top eigenvalues 1/eps and 1/eps_2 on odd functions, so
    # delta_n / delta_{n-1} tends to r = eps/eps_2
    build, tolerance = RATE_CASES[case]
    gs, trial, r = build()
    report = run(gs, trial, max_iters=40, tol=0.0)
    n, ratio = settled_ratio(report)
    assert n >= 5
    assert abs(ratio / r - 1.0) <= tolerance, (n, ratio, r)


TAIL_CASES = ([("quartic", g) for g in (0.7, 1.0, 2.0, 3.0, 5.0, 8.0)]
              + [("soluble", d) for d in (0.05, 0.1, 0.3, 0.77, 1.0, 1.5)])


@pytest.mark.parametrize("case, param", TAIL_CASES,
                         ids=[f"{c}-{p:g}" for c, p in TAIL_CASES])
def test_geometric_tail_estimates_the_iteration_error(case, param):
    # once delta_n/delta_{n-1} has settled at rho, the error of eps_n is
    # the tail delta_n rho/(1 - rho).  On the CLI's defaults (4001 nodes,
    # 8 steps, tol 1e-9) the tail is within 0.958-1.039 of |eps_inf -
    # eps_n|, eps_inf the tol-1e-15 eps on the same grid, wherever that is
    # above 1e-14 eps
    config = cli.RunConfig(case, **{"delta" if case == "soluble" else "g":
                                    param})
    gs = cli._obtain_groundstate(config)
    trial = (TrialFunction.linear() if case == "soluble"
             else TrialFunction.saturating())
    checked = 0
    for anchor in (1.0, 0.5):
        report = run(gs, trial, anchor_x0=anchor,
                     max_iters=config.max_iters, tol=config.tol)
        limit = run(gs, trial, anchor_x0=anchor, max_iters=60,
                    tol=1e-15).eps
        *_, before, last = report.delta_sequence
        rho = last / before
        true = abs(limit - report.eps)
        if true > 1e-14 * limit:
            assert 0.9 <= last * rho / (1.0 - rho) / true <= 1.1
            checked += 1
    assert checked >= 1
