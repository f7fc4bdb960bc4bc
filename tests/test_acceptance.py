"""Acceptance gate: six primary criteria, one test and one verdict line each.

Each test prints exactly one ``ACCEPTANCE <n> ...: PASS|FAIL`` line (visible
with ``pytest -s`` or in the failure report) and asserts on the aggregated
verdict, listing every failing sub-check in the assertion message.
"""

import math
import time

import numpy as np
import pytest

from excite_iter.excite import IterationState, TrialFunction, iterate_once, run
from excite_iter.groundstate import (
    Grid,
    GroundState,
    default_x_max,
    soluble_groundstate,
    solve_groundstate_numeric,
)
from excite_iter._kernels_py import simpson_integral
from excite_iter.potential import Quartic, eval_quartic
from excite_iter.soluble import (
    epsilon1_closed_form,
    epsilon_series,
    exact_chi,
    exact_epsilon,
)

N_POINTS = 16001


def verdict(label, checks):
    """checks: list of (description, ok) pairs -> single PASS/FAIL line."""
    failed = [d for d, ok in checks if not ok]
    status = "PASS" if not failed else "FAIL"
    print(f"ACCEPTANCE {label}: {status}")
    assert not failed, f"ACCEPTANCE {label}: FAIL -> " + "; ".join(failed)


@pytest.fixture(scope="module")
def quartic_g3():
    gs = solve_groundstate_numeric(Quartic(3.0), Grid(4.0, N_POINTS))
    t0 = time.perf_counter()
    report = run(gs, TrialFunction.saturating(), anchor_x0=1.0,
                 max_iters=8, tol=1e-9)
    return gs, report, time.perf_counter() - t0


@pytest.fixture(scope="module")
def quartic_g8():
    gs = solve_groundstate_numeric(Quartic(8.0), Grid(default_x_max(8.0),
                                                      N_POINTS))
    t0 = time.perf_counter()
    report = run(gs, TrialFunction.saturating(), anchor_x0=1.0,
                 max_iters=8, tol=1e-9)
    return gs, report, time.perf_counter() - t0


def test_criterion_1_soluble_benchmark():
    t0 = time.perf_counter()
    gs = soluble_groundstate(0.1, Grid(1.0, N_POINTS))
    report = run(gs, TrialFunction.linear(), anchor_x0=1.0,
                 max_iters=3, tol=0.0)
    elapsed = time.perf_counter() - t0
    expected = (0.59086, 0.31348, 0.30924)
    checks = [
        (f"eps_{n + 1}={report.eps_sequence[n]:.6f} vs {e} (5e-5 abs)",
         abs(report.eps_sequence[n] - e) <= 5e-5)
        for n, e in enumerate(expected)
    ]
    checks.append(
        (f"exact eps {exact_epsilon(0.1):.5f} vs 0.30916 (5e-5 abs)",
         abs(exact_epsilon(0.1) - 0.30916) <= 5e-5))
    checks.append((f"runtime {elapsed:.2f}s < 1s", elapsed < 1.0))
    verdict("1 soluble delta=0.1", checks)


def test_criterion_2_quartic_g3_sequence(quartic_g3):
    gs, report, elapsed = quartic_g3
    expected = (0.41776, 0.41367, 0.413568, 0.413568)
    checks = [
        (f"eps_{n + 1}={report.eps_sequence[n]:.7f} vs {e} (5e-6 abs)",
         abs(report.eps_sequence[n] - e) <= 5e-6)
        for n, e in enumerate(expected)
    ]
    checks.append(
        (f"E_gd={gs.e_gd:.7f} vs 2.48291 (2e-4 abs)",
         abs(gs.e_gd - 2.48291) <= 2e-4))
    checks.append((f"runtime {elapsed:.2f}s < 10s", elapsed < 10.0))
    verdict("2 quartic g=3 anchor=1.0", checks)


def test_criterion_3_quartic_g3_anchor(quartic_g3):
    gs, report_a1, _ = quartic_g3
    report_a05 = run(gs, TrialFunction.saturating(), anchor_x0=0.5,
                     max_iters=8, tol=1e-9)
    eps4 = report_a05.eps_sequence[3]
    # anchor independence is a statement about the converged eigenvalue,
    # which both runs reach at tol=1e-9 within the iteration budget
    rel = abs(report_a1.eps - report_a05.eps) / abs(report_a1.eps)
    checks = [
        (f"eps_4(anchor=0.5)={eps4:.7f} vs 0.413568 (5e-6 abs)",
         abs(eps4 - 0.413568) <= 5e-6),
        (f"anchor 1.0 vs 0.5 converged eps rel diff {rel:.2e} <= 1e-6",
         rel <= 1e-6),
    ]
    verdict("3 quartic g=3 anchor=0.5", checks)


def test_criterion_4_quartic_g8(quartic_g8):
    gs, report, elapsed = quartic_g8
    checks = [
        (f"E_gd={gs.e_gd:.7f} vs 7.727340 (2e-4 abs)",
         abs(gs.e_gd - 7.727340) <= 2e-4),
    ]
    for n, e in ((3, 0.003017947), (4, 0.003017947)):
        got = report.eps_sequence[n - 1]
        checks.append(
            (f"eps_{n}={got:.10f} vs {e} (5e-8 abs)", abs(got - e) <= 5e-8))
    checks.append(
        (f"e_mean={report.e_mean:.6f} vs 7.728849 at printed precision",
         f"{report.e_mean:.6f}" == "7.728849"))
    checks.append(
        (f"eps={report.eps:.6f} vs 0.003018 at printed precision",
         f"{report.eps:.6f}" == "0.003018"))
    # stored asymptotic references are constants, never recomputed
    from excite_iter.references import E_ASYMP_G8, EPS_ASYMP_G8
    checks.append(("stored E_asymp is 7.728854", E_ASYMP_G8 == 7.728854))
    checks.append(("stored eps_asymp is 0.003027", EPS_ASYMP_G8 == 0.003027))
    checks.append((f"runtime {elapsed:.2f}s < 20s", elapsed < 20.0))
    verdict("4 quartic g=8", checks)


def test_criterion_5_closed_form_oracles():
    checks = []
    for delta in (0.02, 0.05, 0.1):
        gs = soluble_groundstate(delta, Grid(1.0, N_POINTS))
        report = run(gs, TrialFunction.linear(), anchor_x0=1.0,
                     max_iters=3, tol=0.0)
        cf = epsilon1_closed_form(delta)
        rel = abs(report.eps_sequence[0] - cf) / cf
        checks.append(
            (f"delta={delta}: eps_1 vs closed form rel {rel:.2e} <= 1e-7",
             rel <= 1e-7))
        for n in (2, 3):
            series = epsilon_series(delta, n)
            bound = 10.0 * delta**5 + 1e-7
            diff = abs(report.eps_sequence[n - 1] - series)
            checks.append(
                (f"delta={delta}: eps_{n} vs series |{diff:.2e}| <= "
                 f"O(delta^5)+1e-7={bound:.2e}", diff <= bound))
    verdict("5 closed-form oracle suite", checks)


def test_criterion_6_property_suite(quartic_g3):
    from scipy.linalg import eigh_tridiagonal

    checks = []
    gs3, report3, _ = quartic_g3

    # gauge invariance of the eps sequence under S -> S + c
    gs_shift = GroundState(gs3.grid, np.asarray(gs3.s) + 3.0, gs3.s_prime,
                           gs3.e_gd, gs3.potential)
    shifted = run(gs_shift, TrialFunction.saturating(), anchor_x0=1.0,
                  max_iters=8, tol=1e-9)
    rel = max(abs(a - b) / abs(a) for a, b in
              zip(report3.eps_sequence, shifted.eps_sequence))
    checks.append((f"gauge invariance rel {rel:.2e} <= 1e-12", rel <= 1e-12))

    # anchor-normalization exactness
    i0 = gs3.grid.index_of(1.0)
    anchor_val = report3.states[0].chi[i0]
    exact_anchor = all(s.chi[i0] == anchor_val for s in report3.states[1:])
    checks.append(("anchor value reproduced exactly each iteration",
                   exact_anchor))

    # eigenfunction fixed point on the soluble case: exact chi in ->
    # same chi and exact eps out
    delta = 0.1
    gs_sol = soluble_groundstate(delta, Grid(1.0, N_POINTS))
    x = gs_sol.grid.nodes()
    chi_star = np.array([exact_chi(delta, xi) for xi in x])
    state = iterate_once(gs_sol, IterationState(chi=chi_star), anchor_x0=1.0)
    eps_rel = abs(state.eps - exact_epsilon(delta)) / exact_epsilon(delta)
    chi_rel = np.max(np.abs(state.chi - chi_star)) / np.max(np.abs(chi_star))
    checks.append((f"fixed point eps rel {eps_rel:.2e} <= 1e-6",
                   eps_rel <= 1e-6))
    checks.append((f"fixed point chi rel {chi_rel:.2e} <= 1e-6",
                   chi_rel <= 1e-6))

    # Simpson order-h^4 convergence ratio
    def quad_err(n):
        t = np.linspace(0.0, 1.0, n)
        vals = np.exp(t)
        return abs(simpson_integral(vals, t[1] - t[0]) - (math.e - 1.0))

    ratio = quad_err(81) / quad_err(161)
    checks.append((f"Simpson halving ratio {ratio:.2f} in [14, 18]",
                   14.0 <= ratio <= 18.0))

    # no non-finite intermediates across the coupling range
    finite_ok = True
    for g in (1.0, 4.0, 7.0, 10.0):
        gs_g = solve_groundstate_numeric(
            Quartic(g), Grid(default_x_max(g), 4001))
        rep_g = run(gs_g, TrialFunction.saturating(), max_iters=4)
        for s in rep_g.states:
            if not np.all(np.isfinite(s.chi)):
                finite_ok = False
        if not all(map(math.isfinite, rep_g.eps_sequence)):
            finite_ok = False
    checks.append(("all intermediates finite for g in [1, 10]", finite_ok))

    # grid-halving stability of eps_4
    gs_half = solve_groundstate_numeric(Quartic(3.0), Grid(4.0, 8001))
    rep_half = run(gs_half, TrialFunction.saturating(), anchor_x0=1.0,
                   max_iters=8, tol=1e-9)
    rel = abs(rep_half.eps_sequence[3] - report3.eps_sequence[3]) / abs(
        report3.eps_sequence[3])
    checks.append((f"grid halving eps_4 rel {rel:.2e} <= 1e-7", rel <= 1e-7))

    # dense-matrix diagonalization oracle at g=3 (full line, mirrored
    # grid); Richardson extrapolation removes the O(h^2) stencil error
    def dense_pair(n_half, x_max=4.0):
        h = x_max / n_half
        xs = np.arange(-n_half, n_half + 1) * h
        diag = 1.0 / h**2 + eval_quartic(3.0, xs)
        off = np.full(xs.size - 1, -0.5 / h**2)
        return eigh_tridiagonal(diag, off, select="i",
                                select_range=(0, 1))[0]

    coarse, fine = dense_pair(2000), dense_pair(4000)
    evals = (4.0 * fine - coarse) / 3.0
    checks.append(
        (f"oracle E_gd {evals[0]:.8f} vs shooting {gs3.e_gd:.8f} (1e-6)",
         abs(evals[0] - gs3.e_gd) <= 1e-6))
    checks.append(
        (f"oracle E_odd {evals[1]:.8f} vs E_gd+eps {report3.e_odd:.8f} "
         "(1e-5)", abs(evals[1] - report3.e_odd) <= 1e-5))

    verdict("6 property suite", checks)
