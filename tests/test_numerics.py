import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from excite_iter.groundstate import Grid, soluble_groundstate
from excite_iter._kernels_py import simpson_integral
from quadrature import backends, profile, reference_profile, watson_tail

# independent 30-digit quadrature of int_0^1 z sin^2(p(1-z)) dz, delta=0.1
INNER_ORACLE_D01 = 0.2497306668710968321


def test_simpson_exact_for_constant():
    y = np.ones(101)
    assert simpson_integral(y, 0.01) == pytest.approx(1.0, abs=1e-15)


def test_simpson_exact_through_cubics():
    x = np.linspace(0, 1, 101)
    assert simpson_integral(x ** 3, x[1]) == pytest.approx(0.25, abs=1e-15)


@given(st.tuples(*[st.floats(-5, 5) for _ in range(4)]))
def test_simpson_exact_for_random_cubic(coeffs):
    a, b, c, d = coeffs
    x = np.linspace(0, 2, 41)
    y = a + b * x + c * x ** 2 + d * x ** 3
    exact = 2 * a + b * 2 + c * 8 / 3 + d * 4
    assert simpson_integral(y, x[1]) == pytest.approx(exact, abs=1e-12)


def test_simpson_against_independent_quadrature():
    x = np.linspace(0, 1, 16001)
    p = math.pi - 0.1
    y = x * np.sin(p * (1 - x)) ** 2
    assert simpson_integral(y, x[1]) == pytest.approx(INNER_ORACLE_D01,
                                                      abs=1e-10)


def test_simpson_order_h4_convergence():
    # error(h)/error(h/2) for an O(h^4) rule lies in [14, 18]
    p = math.pi - 0.1

    def err(n):
        x = np.linspace(0, 1, n)
        y = x * np.sin(p * (1 - x)) ** 2
        return abs(simpson_integral(y, x[1]) - INNER_ORACLE_D01)

    ratio = err(81) / err(161)
    assert 14 <= ratio <= 18


def test_simpson_rejects_bad_ranges():
    for n in (1, 2, 10):
        with pytest.raises(ValueError, match="panel count"):
            simpson_integral(np.ones(n), 0.1)


# The running integrals of a step are the two passes of excite_step, which
# at node 0 gives the profile alone (profile).  With w = 0 and tail 1, I
# is 0 and a profile is twice the forward running integral of winv,
# exactly.


def test_cumulative_matches_full_integral():
    x = np.linspace(0, 1, 1001)
    y = np.exp(-x) * np.sin(3 * x)
    for backend in backends():
        chihat = profile(backend, x[1], np.zeros(1001), y, np.ones(1001),
                         1.0)
        assert chihat[0] == 0.0
        assert chihat[-1] == pytest.approx(2.0 * simpson_integral(y, x[1]),
                                           rel=1e-12)


def test_cumulative_odd_offsets_are_consistent():
    # the pair rule and the half-panel rule both integrate a quadratic
    # exactly, so the profile is exact at every offset: the forward pass
    # alone on winv = x^2, and both passes on chi = x, whose
    # I = (1 - y^2)/2 gives the forward pass a quadratic
    x = np.linspace(0, 1, 201)
    n, h, ones = len(x), x[1], np.ones(201)
    for backend in backends():
        forward = profile(backend, h, np.zeros(n), x ** 2, ones, 1.0)
        assert np.max(np.abs(np.asarray(forward) - 2.0 * x ** 3 / 3)) \
            < 1e-15
        both = profile(backend, h, ones, ones, x, 0.0)
        assert np.max(np.abs(np.asarray(both) - (x - x ** 3 / 3))) < 1e-15


def test_cumulative_is_fourth_order_at_odd_offsets():
    # w = e^{-x}, winv = e^x and chi = cos 3x on [0, 1]:
    # I(y) = F(1) - F(y) with F(z) = e^{-z} (3 sin 3z - cos 3z)/10, and
    # chihat = 2 (G(x) - G(0)) with G(y) = e^y F(1) + (cos 3y + sin 3y/3)/10;
    # the half-panel rule at odd offsets is O(h^4) like the panel pairs at
    # even ones: halving h divides the largest error of each by about 16
    def f(z):
        return np.exp(-z) * (3 * np.sin(3 * z) - np.cos(3 * z)) / 10

    def g(y):
        return np.exp(y) * f(1.0) + (np.cos(3 * y) + np.sin(3 * y) / 3) / 10

    def err(backend, n, offsets):
        x = np.linspace(0, 1, n)
        chihat = profile(backend, x[1], np.exp(-x), np.exp(x),
                         np.cos(3 * x), 0.0)
        error = np.abs(np.asarray(chihat) - 2.0 * (g(x) - g(0.0)))
        return np.max(error[offsets])

    for backend in backends():
        for offsets in (slice(1, None, 2), slice(2, None, 2)):
            assert 14 <= err(backend, 81, offsets) \
                / err(backend, 161, offsets) <= 18


def test_reverse_cumulative_mirrors_forward():
    # the reverse pass is the forward pass on the reversed samples: a
    # profile equals the forward pass alone on that mirrored integral
    x = np.linspace(0, 1, 101)
    y = np.cos(2 * x)
    n, h, ones = len(x), x[1], np.ones(101)
    for backend in backends():
        forward = profile(backend, h, np.zeros(n), y[::-1], ones, 1.0)
        rev = np.asarray(forward)[::-1] * 0.5
        assert rev[-1] == 0.0
        both = profile(backend, h, ones, ones, y, 0.0)
        via_forward = profile(backend, h, np.zeros(n), rev, ones, 1.0)
        assert both.tobytes() == via_forward.tobytes()


def _samples(n):
    return arrays(np.float64, n,
                  elements=st.floats(-1e6, 1e6, allow_subnormal=False))


@st.composite
def profile_samples(draw):
    """(h, w, winv, chi, tail): finite samples of an odd length in
    [3, 121]."""
    n = 2 * draw(st.integers(1, 60)) + 1
    return (draw(st.floats(1e-4, 10.0)), draw(_samples(n)),
            draw(_samples(n)), draw(_samples(n)),
            draw(st.floats(-1e6, 1e6, allow_subnormal=False)))


def _bits(a):
    return np.ascontiguousarray(a).view(np.int64)


@given(profile_samples(), st.booleans())
def test_cumulative_matches_reference_formula(args, reversed_in):
    # reference_profile's two passes to the bit, also for inputs that are
    # reversed views, which the kernels copy
    h, w, winv, chi, tail = args
    if reversed_in:
        w, winv, chi = w[::-1], winv[::-1], chi[::-1]
    reference = reference_profile(h, w, winv, chi, tail)
    for backend in backends():
        result = profile(backend, h, w, winv, chi, tail)
        assert np.array_equal(_bits(result), _bits(reference))


def test_tail_closure_hard_wall_is_exactly_zero():
    # compact support: the Watson closure is exactly zero, so chihat is
    # the profile with no tail at all
    gs = soluble_groundstate(0.1, Grid(1.0, 101))
    w, _, winv = gs.scaled_weight
    chi = np.ones(101)
    tail = watson_tail(gs, chi)
    assert tail == 0.0
    for backend in backends():
        chihat = profile(backend, gs.grid.h, w, winv, chi, tail)
        no_tail = profile(backend, gs.grid.h, w, winv, chi, 0.0)
        assert chihat.tobytes() == no_tail.tobytes()
