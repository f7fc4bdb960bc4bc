import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from excite_iter import kernels
from excite_iter.excite import _unnormalized_profile
from excite_iter.groundstate import Grid, soluble_groundstate
from excite_iter.numerics import (cumulative_simpson,
                                  reverse_cumulative_simpson,
                                  simpson_integral)

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


def test_cumulative_matches_full_integral():
    x = np.linspace(0, 1, 1001)
    y = np.exp(-x) * np.sin(3 * x)
    cum = cumulative_simpson(y, x[1])
    assert cum[0] == 0.0
    assert cum[-1] == pytest.approx(simpson_integral(y, x[1]), rel=1e-12)


def test_cumulative_odd_offsets_are_consistent():
    # the pair rule and the half-panel rule both integrate a quadratic
    # exactly, so the running integral is exact at every offset
    x = np.linspace(0, 1, 201)
    cum = cumulative_simpson(x ** 2, x[1])
    assert np.max(np.abs(cum - x ** 3 / 3)) < 1e-15


def test_cumulative_is_fourth_order_at_odd_offsets():
    # the half-panel rule at odd offsets is O(h^4) like the panel pairs:
    # halving h divides the largest odd-offset error by about 16
    def err(n):
        x = np.linspace(0, 1, n)
        cum = cumulative_simpson(np.cos(3 * x), x[1])
        return np.max(np.abs(cum - np.sin(3 * x) / 3)[1::2])

    assert 14 <= err(81) / err(161) <= 18


def test_reverse_cumulative_mirrors_forward():
    x = np.linspace(0, 1, 101)
    y = np.cos(2 * x)
    rev = reverse_cumulative_simpson(y, x[1])
    fwd = cumulative_simpson(y[::-1], x[1])
    assert np.allclose(rev, fwd[::-1], rtol=0, atol=0)
    assert rev[-1] == 0.0


def _reference_cumulative(y, h):
    """The allocating formula the in-place scheme must reproduce."""
    out = np.empty(len(y))
    out[0] = 0.0
    out[2::2] = np.cumsum(h / 3.0 * (y[0:-2:2] + 4.0 * y[1:-1:2] + y[2::2]))
    out[1::2] = (out[0:-1:2]
                 + (5.0 * y[0:-2:2] + 8.0 * y[1::2] - y[2::2]) * (h / 12.0))
    return out


odd_length_samples = st.integers(1, 60).flatmap(
    lambda k: arrays(np.float64, 2 * k + 1,
                     elements=st.floats(-1e6, 1e6, allow_subnormal=False)))


def _bits(a):
    return np.ascontiguousarray(a).view(np.int64)


@given(odd_length_samples, st.floats(1e-4, 10.0), st.booleans(),
       st.booleans(), st.booleans())
def test_cumulative_out_is_bit_identical(y, h, reverse, reversed_in,
                                         reversed_out):
    values = y[::-1] if reversed_in else y
    if reverse:
        fn = reverse_cumulative_simpson
        reference = _reference_cumulative(values[::-1], h)[::-1]
    else:
        fn = cumulative_simpson
        reference = _reference_cumulative(values, h)
    buf = np.full(len(y), np.nan)
    out = buf[::-1] if reversed_out else buf
    allocated = fn(values, h)
    assert fn(values, h, out=out) is out
    assert np.array_equal(_bits(out), _bits(allocated))
    assert np.array_equal(_bits(allocated), _bits(reference))


@given(odd_length_samples, st.integers(-2, 2))
def test_cumulative_rejects_aliased_out(y, shift):
    # out overlapping values in any way: the same memory, reversed, or
    # shifted by less than the length (n >= 3)
    n = len(y)
    buf = np.zeros(2 * n + 6)
    values = buf[3:3 + n]
    values[:] = y
    for out in (values, values[::-1], buf[3 + shift:3 + shift + n]):
        with pytest.raises(ValueError, match="share memory"):
            cumulative_simpson(values, 0.1, out=out)
        with pytest.raises(ValueError, match="share memory"):
            reverse_cumulative_simpson(values, 0.1, out=out)


def test_cumulative_out_checks():
    # interleaved views of one buffer do not share memory and are accepted
    buf = np.arange(22.0)
    out = buf[1::2]
    cumulative_simpson(buf[0::2], 0.1, out=out)
    assert np.array_equal(out, cumulative_simpson(np.arange(0.0, 22.0, 2.0),
                                                  0.1))
    with pytest.raises(ValueError, match="shape"):
        cumulative_simpson(np.ones(11), 0.1, out=np.empty(13))
    with pytest.raises(ValueError, match="float"):
        cumulative_simpson(np.ones(11), 0.1, out=np.empty(11, np.float32))


def test_tail_closure_hard_wall_is_exactly_zero():
    # compact support: the Watson closure is exactly zero, so chihat is
    # the profile with no tail at all
    gs = soluble_groundstate(0.1, Grid(1.0, 101))
    w, _, winv = gs.scaled_weight
    chi = np.ones(101)
    chihat = _unnormalized_profile(gs, chi)
    no_tail = kernels.excite_profile(gs.grid.h, w, winv, chi, 0.0,
                                     np.empty(101))
    assert chihat.tobytes() == no_tail.tobytes()
