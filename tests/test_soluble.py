"""Tests for the analytically soluble box-with-spike benchmark."""

import math

import numpy as np
import pytest

from excite_iter.excite import (
    IterationState,
    TrialFunction,
    _unnormalized_profile,
    iterate_once,
    run,
)
from excite_iter.groundstate import Grid, soluble_groundstate
from excite_iter.potential import DeltaBox
from excite_iter.soluble import (
    chi1_closed_form,
    epsilon1_closed_form,
    epsilon_series,
    exact_chi,
    exact_epsilon,
)


class TestExactEpsilon:
    def test_formula(self):
        # (pi^2 - p^2) / 2 with p = pi - delta.
        for delta in (0.02, 0.05, 0.1, 0.3):
            p = math.pi - delta
            assert exact_epsilon(delta) == pytest.approx(
                (math.pi**2 - p * p) / 2.0, rel=1e-15
            )

    def test_vanishes_with_spike(self):
        # No spike means ground state and first odd state are degenerate
        # in the half-box picture: the gap closes as delta -> 0.
        assert exact_epsilon(1e-12) < 1e-11

    def test_below_first_iterate(self):
        # The iteration approaches the gap from above, so the first
        # iterate must overshoot the exact value for every spike strength.
        for delta in np.linspace(0.01, 0.5, 20):
            assert exact_epsilon(delta) < epsilon1_closed_form(delta)


class TestEpsilonSeries:
    def test_iterates_approach_exact(self):
        # The truncated series for successive iterates approach the exact
        # excitation energy monotonically in the iterate index.
        for delta in (0.02, 0.05):
            exact = exact_epsilon(delta)
            errs = [abs(epsilon_series(delta, n) - exact) for n in (1, 2, 3)]
            assert errs[0] > errs[1] > errs[2]

    def test_first_iterate_leading_order(self):
        # The first iterate overshoots the gap by a factor of two to
        # leading order in delta: eps_1 ~ 2 pi delta.
        delta = 1e-5
        assert epsilon_series(delta, 1) == pytest.approx(
            2.0 * math.pi * delta, rel=1e-4
        )

    def test_series_matches_closed_form(self):
        # For small delta the quartic truncation of eps_1 agrees with the
        # full closed form to O(delta^5).
        for delta in (0.01, 0.02):
            assert abs(
                epsilon_series(delta, 1) - epsilon1_closed_form(delta)
            ) < 10.0 * delta**5 + 1e-12

    def test_invalid_order(self):
        with pytest.raises(ValueError):
            epsilon_series(0.1, 4)


class TestExactChi:
    def test_wall_value_is_removable_limit(self):
        # chi at the wall equals the limit pi/p of sin(pi x)/sin(p x).
        for delta in (0.05, 0.1, 0.3):
            p = math.pi - delta
            assert exact_chi(delta, 1.0) == pytest.approx(math.pi / p, rel=1e-15)

    def test_continuity_at_wall(self):
        # Approaching the wall reproduces the removable-singularity value.
        delta = 0.1
        wall = exact_chi(delta, 1.0)
        for x in (1.0 - 1e-6, 1.0 - 1e-8):
            assert exact_chi(delta, x) == pytest.approx(wall, abs=1e-6)

    def test_interior_values(self):
        delta = 0.1
        p = math.pi - delta
        x = 0.37
        assert exact_chi(delta, x) == pytest.approx(
            math.sin(math.pi * x) / math.sin(p * (1.0 - x)), rel=1e-14
        )

    def test_origin_vanishes(self):
        # chi carries the node of the odd state at the origin.
        assert exact_chi(0.1, 0.0) == 0.0

    def test_array_matches_math_loop(self):
        # one call over the grid, wall node included, against the closed
        # form in math.sin node by node; NumPy's sin may differ from the C
        # library's by an ulp, so a few ulp are allowed
        delta = 0.3
        p = math.pi - delta
        x = np.linspace(0.0, 1.0, 2001)
        loop = [math.sin(math.pi * xi) / math.sin(p * (1.0 - xi))
                for xi in x[:-1]] + [math.pi / p]
        chi = exact_chi(delta, x)
        assert chi.shape == x.shape
        np.testing.assert_allclose(chi, loop, rtol=4 * np.finfo(float).eps,
                                   atol=0)
        assert isinstance(exact_chi(delta, 0.5), float)

    def test_array_outside_range_rejected(self):
        with pytest.raises(ValueError, match="1.5"):
            exact_chi(0.1, np.array([0.0, 0.5, 1.5]))
        with pytest.raises(ValueError):
            exact_chi(0.1, np.array([0.2, np.nan]))


class TestClosedFormFirstIterate:
    def test_epsilon1_matches_engine(self):
        # The closed-form first eigenvalue iterate must agree with the
        # numerically integrated one.
        delta = 0.1
        gs = soluble_groundstate(delta, Grid(1.0, 16001))
        x = gs.grid.nodes()
        prev = IterationState(chi=x.copy())
        state = iterate_once(gs, prev, anchor_x0=1.0)
        assert state.eps == pytest.approx(epsilon1_closed_form(delta), rel=1e-8)

    def test_profile_matches_engine(self):
        # e^{-S} times the unnormalized first iterate equals the closed-form
        # profile divided by 2 p sin(p).
        delta = 0.1
        p = DeltaBox(delta).p
        gs = soluble_groundstate(delta, Grid(1.0, 16001))
        x = gs.grid.nodes()
        chihat = _unnormalized_profile(gs, x.copy())
        with np.errstate(under="ignore"):
            lhs = np.exp(-gs.s) * chihat
        rhs = np.array([chi1_closed_form(delta, xi) for xi in x])
        rhs /= 2.0 * p * math.sin(p)
        assert np.max(np.abs(lhs - rhs)) < 1e-8

    def test_boundary_values(self):
        # The closed-form profile vanishes at the origin and at the wall.
        for delta in (0.05, 0.1, 0.3):
            assert chi1_closed_form(delta, 0.0) == 0.0
            assert abs(chi1_closed_form(delta, 1.0)) < 1e-15


class TestSolubleCase:
    def test_validation(self):
        # DeltaBox owns the range check; every closed form goes through it
        closed_forms = (exact_epsilon, epsilon1_closed_form,
                        lambda d: exact_chi(d, 0.5),
                        lambda d: chi1_closed_form(d, 0.5),
                        lambda d: epsilon_series(d, 1))
        for delta in (0.0, math.pi / 2, math.pi, -0.1):
            with pytest.raises(ValueError, match="delta must lie in"):
                DeltaBox(delta)
            for closed_form in closed_forms:
                with pytest.raises(ValueError, match="delta must lie in"):
                    closed_form(delta)

    def test_full_run_converges_to_exact(self):
        delta = 0.1
        box = DeltaBox(delta)
        gs = soluble_groundstate(box.delta, Grid(1.0, 16001))
        report = run(gs, TrialFunction.linear(), max_iters=8, tol=1e-9)
        assert report.eps == pytest.approx(exact_epsilon(delta), rel=1e-7)
        assert report.status in ("converged", "max_iters")
