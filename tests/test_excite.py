"""Tests for the excitation-energy iteration engine."""

import math
import tracemalloc
import warnings
from array import array

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from excite_iter import excite, kernels
from excite_iter.errors import DegenerateAnchorError
from excite_iter.excite import (
    BLOCK_ROWS,
    IterationState,
    TrialFunction,
    _unnormalized_profile,
    iterate_once,
    orthogonality_residual,
    run,
)
from excite_iter.groundstate import (OVERFLOW_EXPONENT, Grid, GroundState,
                                     default_x_max, soluble_groundstate,
                                     solve_groundstate_numeric)
from excite_iter._kernels_py import (reverse_cumulative_simpson,
                                    simpson_integral, zeros)
from excite_iter.potential import Quartic
from excite_iter.soluble import epsilon1_closed_form, exact_epsilon
from wells import harmonic

# 30-digit quadrature of int_x^1 sin(p(1-z))^2 * z dz at delta = 0.1,
# frozen from an independent arbitrary-precision evaluation.
TAIL_ORACLE_D01_X0 = 0.2497306668710968321
TAIL_ORACLE_D01_X05 = 0.15644138847098579194

DELTA = 0.1

# eps_sequence, as float.hex, of the 2001-node runs below, so any change
# that moves a bit of the iteration fails here.  The outer integrand is
# winv * (e^{-u_ref} I) with winv = e^{2(S - S_min)} built once per ground
# state; both running integrals take odd offsets from the half-panel rule
# h/12 (5 y0 + 8 y1 - y2).
PINNED_EPS_SOLUBLE_D01 = (
    "0x1.2e85a16e9b98ep-1", "0x1.41014a1077e35p-2", "0x1.3caa9ebb987fep-2",
    "0x1.3c94b361beec7p-2", "0x1.3c9441515349dp-2", "0x1.3c943efcbcdafp-2",
    "0x1.3c943ef0897f6p-2", "0x1.3c943ef0499b2p-2")
PINNED_EPS_QUARTIC_G3 = (
    "0x1.acb70841ae896p-2", "0x1.a88c99c3c763dp-2", "0x1.a874917427bbcp-2",
    "0x1.a874819282ed6p-2", "0x1.a8748c3b68d47p-2", "0x1.a8748d444f8fdp-2",
    "0x1.a8748d57f373fp-2", "0x1.a8748d59496bcp-2")


def tail_integral(gs, chi_prev, x):
    """I(x) = int_x^inf e^{-2S(z)} chi_prev(z) dz at a grid node, from
    the reverse running integral of the scaled weight times chi_prev
    that a step integrates first."""
    w, u_ref, _ = gs.scaled_weight
    scaled = reverse_cumulative_simpson(np.asarray(w) * chi_prev, gs.grid.h)
    return float(scaled[gs.grid.index_of(x)] * np.exp(u_ref))


@pytest.fixture(scope="module")
def gs_soluble():
    return soluble_groundstate(DELTA, Grid(1.0, 16001))


@pytest.fixture(scope="module")
def gs_quartic():
    return solve_groundstate_numeric(Quartic(3.0), Grid(4.0, 16001))


class TestTrialFunction:
    def test_linear_samples(self, gs_soluble):
        x = gs_soluble.grid.nodes()
        assert np.array_equal(TrialFunction.linear().sample(gs_soluble.grid), x)

    def test_saturating_samples(self, gs_quartic):
        x = np.asarray(gs_quartic.grid.nodes())
        v = np.asarray(TrialFunction.saturating().sample(gs_quartic.grid))
        inside = x < 1.0
        assert np.allclose(v[inside], x[inside] * (2.0 - x[inside]))
        assert np.all(v[~inside] == 1.0)
        # the bits of the np.where form it replaced
        assert v.tobytes() == np.where(x < 1.0, x * (2.0 - x), 1.0).tobytes()

    @pytest.mark.parametrize("kind", ["linear", "saturating", "tabulated"])
    def test_sample_into_out(self, gs_soluble, kind):
        grid = gs_soluble.grid
        trial = (TrialFunction.tabulated(np.sin(grid.nodes()))
                 if kind == "tabulated" else TrialFunction(kind))
        out = array("d", [math.nan]) * grid.n_points
        assert trial.sample(grid, out=out) is out
        assert out.tobytes() == trial.sample(grid).tobytes()

    def test_tabulated_roundtrip(self, gs_soluble):
        x = gs_soluble.grid.nodes()
        values = np.sin(x)
        trial = TrialFunction.tabulated(values)
        assert np.array_equal(trial.sample(gs_soluble.grid), values)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            TrialFunction("quadratic")

    def test_empty_tabulated_rejected(self):
        with pytest.raises(ValueError, match="needs samples"):
            TrialFunction.tabulated([])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_tabulated_rejected(self, gs_soluble, bad):
        values = gs_soluble.grid.nodes()
        values[5] = bad
        with pytest.raises(ValueError, match="must be finite"):
            TrialFunction.tabulated(values)

    @pytest.mark.parametrize("shape", [(2, 3), (1, 5), ()])
    def test_tabulated_that_is_not_1d_rejected(self, shape):
        with pytest.raises(ValueError, match=r"1-D array, got shape"):
            TrialFunction.tabulated(np.zeros(shape))


class TestTailIntegral:
    def test_vanishes_at_wall(self, gs_soluble):
        x = gs_soluble.grid.nodes()
        assert tail_integral(gs_soluble, x[:], 1.0) == 0.0

    def test_frozen_oracle(self, gs_soluble):
        x = gs_soluble.grid.nodes()
        assert tail_integral(gs_soluble, x[:], 0.0) == pytest.approx(
            TAIL_ORACLE_D01_X0, rel=1e-12
        )
        assert tail_integral(gs_soluble, x[:], 0.5) == pytest.approx(
            TAIL_ORACLE_D01_X05, rel=1e-12
        )

    def test_monotone_decreasing(self, gs_soluble):
        # For a nonnegative integrand the tail integral decreases in x.
        x = gs_soluble.grid.nodes()
        vals = [tail_integral(gs_soluble, x[:], xi) for xi in (0.0, 0.25, 0.5, 0.75)]
        assert vals == sorted(vals, reverse=True)


class TestIterateOnce:
    def test_first_epsilon_matches_closed_form(self, gs_soluble):
        prev = IterationState(chi=gs_soluble.grid.nodes())
        state = iterate_once(gs_soluble, prev, anchor_x0=1.0)
        assert state.eps == pytest.approx(epsilon1_closed_form(DELTA), rel=1e-8)

    def test_anchor_value_is_exact(self, gs_soluble):
        prev = IterationState(chi=gs_soluble.grid.nodes())
        state = iterate_once(gs_soluble, prev, anchor_x0=1.0)
        i0 = gs_soluble.grid.index_of(1.0)
        assert state.chi[i0] == 1.0

    def test_degenerate_anchor_raises(self, gs_soluble):
        # The unnormalized iterate vanishes at the origin by construction.
        prev = IterationState(chi=gs_soluble.grid.nodes())
        with pytest.raises(DegenerateAnchorError):
            iterate_once(gs_soluble, prev, anchor_x0=0.0)

    def test_fixed_point(self, gs_soluble):
        # Applying the map to a converged iterate reproduces its eigenvalue.
        report = run(gs_soluble, TrialFunction.linear(), max_iters=8, tol=1e-9)
        again = iterate_once(gs_soluble, report.states[-1], 1.0)
        assert again.eps == pytest.approx(report.eps, rel=5e-9)


class TestGaugeAndAnchor:
    def test_gauge_invariance(self, gs_soluble):
        # eps is invariant under S -> S + c: the inner weight e^{-2S} and
        # the outer factor e^{+2S} cancel any constant shift.
        base = run(gs_soluble, TrialFunction.linear(), max_iters=4).eps_sequence
        for shift in (+5.0, -5.0):
            shifted = GroundState(
                gs_soluble.grid, np.asarray(gs_soluble.s) + shift,
                gs_soluble.s_prime, gs_soluble.e_gd, gs_soluble.potential)
            moved = run(shifted, TrialFunction.linear(), max_iters=4).eps_sequence
            assert np.allclose(moved, base, rtol=1e-12, atol=0.0)

    def test_anchor_covariance_converged(self, gs_soluble):
        # The converged eigenvalue does not depend on the anchor point.
        a = run(gs_soluble, TrialFunction.linear(), anchor_x0=1.0,
                max_iters=8, tol=1e-9)
        b = run(gs_soluble, TrialFunction.linear(), anchor_x0=0.6,
                max_iters=8, tol=1e-9)
        assert a.eps == pytest.approx(b.eps, rel=1e-6)


class TestRun:
    def test_converges_to_exact_soluble(self, gs_soluble):
        report = run(gs_soluble, TrialFunction.linear(), max_iters=8, tol=1e-9)
        assert report.status == "converged"
        assert report.eps == pytest.approx(exact_epsilon(DELTA), rel=1e-7)

    def test_deltas_are_cauchy(self, gs_soluble):
        report = run(gs_soluble, TrialFunction.linear(), max_iters=6, tol=0.0)
        deltas = report.delta_sequence
        assert all(deltas[i + 1] < deltas[i] for i in range(len(deltas) - 1))

    def test_energy_split(self, gs_quartic):
        report = run(gs_quartic, TrialFunction.linear(), max_iters=8, tol=1e-9)
        assert report.e_odd == pytest.approx(report.e_gd + report.eps, rel=1e-14)
        assert report.e_mean == pytest.approx(
            0.5 * (report.e_gd + report.e_odd), rel=1e-14)

    def test_invalid_arguments(self, gs_soluble):
        with pytest.raises(ValueError):
            run(gs_soluble, TrialFunction.linear(), max_iters=0)

    @pytest.mark.parametrize("tol", [1.0, 2.0, math.inf, -1.0, math.nan])
    def test_tol_outside_0_1_is_rejected(self, tol):
        # tol = 2 stopped as converged after 2 steps, 1.4 % off the closed
        # form; tol = -1 and NaN ran every step
        gs = soluble_groundstate(DELTA, Grid(1.0, 2001))
        with pytest.raises(ValueError, match=rf"^tol must be in \[0, 1\), "
                                             rf"got {tol}$"):
            run(gs, TrialFunction.linear(), tol=tol, max_iters=12)

    def test_soluble_eps_sequence_is_pinned_bit_for_bit(self):
        gs = soluble_groundstate(DELTA, Grid(1.0, 2001))
        report = run(gs, TrialFunction.linear(), anchor_x0=1.0)
        assert report.status == "converged"
        assert tuple(e.hex() for e in report.eps_sequence) \
            == PINNED_EPS_SOLUBLE_D01

    def test_quartic_eps_sequence_is_pinned_bit_for_bit(self):
        gs = solve_groundstate_numeric(Quartic(3.0),
                                       Grid(default_x_max(3.0), 2001))
        report = run(gs, TrialFunction.saturating(), anchor_x0=1.0)
        assert report.status == "converged"
        assert tuple(e.hex() for e in report.eps_sequence) \
            == PINNED_EPS_QUARTIC_G3

    @pytest.mark.parametrize("g", [3.0, 8.0])
    def test_quartic_eps_converges_at_fourth_order(self, g):
        # log2 of the ratio of successive differences over 4001, 8001 and
        # 16001 nodes, each run to convergence; a one-panel trapezoid at
        # odd offsets gives 3 at g=3
        eps = []
        for n in (4001, 8001, 16001):
            gs = solve_groundstate_numeric(Quartic(g),
                                           Grid(default_x_max(g), n))
            report = run(gs, TrialFunction.saturating(), anchor_x0=1.0,
                         max_iters=40, tol=0.0)
            assert report.status == "converged"
            eps.append(report.eps)
        ratio = (eps[0] - eps[1]) / (eps[1] - eps[2])
        assert ratio >= 2.0 ** 3.8

    def test_tail_cutoff_does_no_harm(self):
        # at x_max = 8, 2(S - S_min) reaches ~983; winv is cut to 0 beyond
        # OVERFLOW_EXPONENT, on a tail of ~3300 nodes that chihat at the
        # anchor never reads
        gs = solve_groundstate_numeric(Quartic(3.0), Grid(8.0, 32001))
        exponent = 2.0 * np.asarray(gs.s) + gs.scaled_weight[1]
        beyond = exponent > OVERFLOW_EXPONENT
        n_beyond = int(beyond.sum())
        assert n_beyond > 3000 and beyond[-n_beyond:].all()
        assert np.array_equal(np.asarray(gs.scaled_weight[2]) == 0.0, beyond)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = run(gs, TrialFunction.saturating())
        assert all(np.isfinite(s.chi).all() for s in report.states)
        assert report.eps == pytest.approx(0.41450711114503, abs=2e-11)

    def test_harmonic_soft_wall_is_exact(self):
        # S = x^2/2 is the harmonic oscillator: eps = 1 and chi = x exactly.
        # It takes the Watson tail closure and winv without the Riccati
        # kernel; the iteration never reads the potential.
        report = run(harmonic(4.0, 16001), TrialFunction.linear(),
                     max_iters=3, tol=0.0)
        assert len(report.eps_sequence) == 3
        for eps in report.eps_sequence:
            assert abs(eps - 1.0) <= 1e-11


@pytest.fixture(params=["python", "cython"])
def profile_backend(request, monkeypatch):
    """Makes the iteration use the named backend's profile kernel."""
    try:
        profile = kernels.get_backend(request.param).excite_profile
    except ImportError as exc:
        pytest.skip(str(exc))
    monkeypatch.setattr(kernels, "excite_profile", profile)
    return request.param


# x_max 40 puts 2S above OVERFLOW_EXPONENT beyond x = 26.5: winv is 0 there
PROFILE_CASES = {
    "soluble-hard-wall": lambda: soluble_groundstate(DELTA, Grid(1.0, 2001)),
    "quartic-g3": lambda: solve_groundstate_numeric(
        Quartic(3.0), Grid(default_x_max(3.0), 2001)),
    "harmonic": lambda: harmonic(4.0, 2001),
    "harmonic-winv-0-in-tail": lambda: harmonic(40.0, 2001),
    "soluble-5-nodes": lambda: soluble_groundstate(DELTA, Grid(1.0, 5)),
    "harmonic-5-nodes": lambda: harmonic(4.0, 5),
}


@pytest.mark.parametrize("case", PROFILE_CASES)
def test_profile_backends_agree_bit_for_bit(case):
    try:
        compiled = kernels.get_backend("cython")
    except ImportError as exc:
        pytest.skip(str(exc))
    gs = PROFILE_CASES[case]()
    n = gs.grid.n_points
    rng = np.random.default_rng(7)
    # -0.0 everywhere: np.cumsum starts from the first pair, not 0.0 + it
    for chi in (TrialFunction.saturating().sample(gs.grid),
                rng.standard_normal(n), np.full(n, -0.0)):
        results = []
        for backend in (kernels.get_backend("python"), compiled):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(kernels, "excite_profile", backend.excite_profile)
                chihat = _unnormalized_profile(gs, chi)
                # an array filled with NaN, as a reused out may be
                out = array("d", [math.nan]) * n
                assert _unnormalized_profile(gs, chi, out=out) is out
            assert out.tobytes() == chihat.tobytes()
            results.append(chihat.tobytes())
            assert np.isfinite(chihat).all()
        assert results[0] == results[1]
    if case == "harmonic-winv-0-in-tail":
        assert (np.asarray(gs.scaled_weight[2]) == 0.0).sum() > n // 4
    elif gs.s[-1] != np.inf:                  # no hard wall
        assert gs.scaled_weight[0][-1] != 0.0  # a nonzero Watson tail


@st.composite
def profile_arguments(draw):
    """(h, w, winv, chi_prev, tail) of an odd length in [3, 201]: weights
    >= 0 with exact zeros, a finite chi with -0.0 in it, and a tail of
    either signed zero or nonzero."""
    n = 2 * draw(st.integers(1, 100)) + 1
    weight = arrays(np.float64, n, elements=st.one_of(
        st.just(0.0), st.floats(0.0, 1e6)))
    chi = arrays(np.float64, n, elements=st.one_of(
        st.just(-0.0), st.floats(-1e6, 1e6)))
    tail = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1e6, 1e6))
    return (draw(st.floats(1e-4, 1.0)), draw(weight), draw(weight),
            draw(chi), draw(tail))


@given(profile_arguments())
def test_profile_backends_agree_on_random_arrays(args):
    try:
        compiled = kernels.get_backend("cython")
    except ImportError as exc:
        pytest.skip(str(exc))
    n = len(args[3])
    python, cython = (backend.excite_profile(*args, zeros(n)).tobytes()
                      for backend in (kernels.get_backend("python"),
                                      compiled))
    assert python == cython


def _backends():
    """The kernels of every backend that imports."""
    backends = [kernels.get_backend("python")]
    try:
        backends.append(kernels.get_backend("cython"))
    except ImportError:
        pass
    return backends


@given(st.integers(2, 400), st.floats(1e-3, 40.0), st.booleans())
def test_node_backends_agree_bit_for_bit(n, x_max, saturating):
    # the nodes are NumPy's linspace to the byte, and the saturating
    # trial the bytes of its np.where form
    h = x_max / (n - 1)
    samples = {backend.sample_nodes(n, h, x_max, saturating,
                                    zeros(n)).tobytes()
               for backend in _backends()}
    assert len(samples) == 1
    x = np.linspace(0.0, x_max, n)
    expected = np.where(x < 1.0, x * (2.0 - x), 1.0) if saturating else x
    assert samples == {expected.tobytes()}


@given(arrays(np.float64, st.integers(0, 50), elements=st.one_of(
           st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan]),
           st.floats())),
       st.one_of(st.sampled_from([0.0, -0.0, np.inf, np.nan]), st.floats()))
def test_scale_backends_agree_bit_for_bit(values, factor):
    # the products NumPy forms, to the bit but for a NaN's payload
    with np.errstate(all="ignore"):
        expected = values * factor
    nan = np.isnan(expected)
    for backend in _backends():
        x = array("d", values)
        assert backend.scale(x, factor) is x
        assert np.array_equal(np.isnan(x), nan)
        assert x.tobytes() == np.where(nan, x, expected).tobytes()


def test_compiled_profile_reads_each_calls_weights():
    # the compiled wrapper looks up the address of each array on every
    # call; it must give the Python kernel's bytes when ground states
    # alternate, when w must be copied to be contiguous, and when w is
    # edited in place between calls
    try:
        compiled = kernels.get_backend("cython")
    except ImportError as exc:
        pytest.skip(str(exc))
    python = kernels.get_backend("python")
    states = [soluble_groundstate(DELTA, Grid(1.0, 201)), harmonic(4.0, 201)]
    chi = TrialFunction.saturating().sample(states[0].grid)

    def check(w, winv):
        python_bytes, compiled_bytes = (
            backend.excite_profile(0.005, w, winv, chi, 0.25,
                                   zeros(len(chi))).tobytes()
            for backend in (python, compiled))
        assert python_bytes == compiled_bytes
        return compiled_bytes

    seen = set()
    for i in (0, 1, 1, 0, 0, 1):
        w, _, winv = states[i].scaled_weight
        seen.add(check(w, winv))
    assert len(seen) == 2

    w, _, winv = states[1].scaled_weight
    source = np.zeros((len(w), 2))
    source[:, 0] = w
    strided = source[:, 0]                    # not contiguous: copied
    for given in (strided, np.array(w), array("d", w)):
        before = check(given, winv)
        assert check(given, winv) == before
        np.asarray(given)[:] *= 0.5           # the same array, new values
        assert check(given, winv) != before


def test_profile_rejects_arrays_it_cannot_use(profile_backend):
    def profile(n, n_w=None):
        return kernels.excite_profile(
            0.1, np.ones(n_w or n), np.ones(n), np.ones(n), 0.5, zeros(n))

    assert len(profile(5)) == 5
    assert len(profile(3)) == 3
    for bad in (dict(n=4), dict(n=1), dict(n=5, n_w=7)):
        with pytest.raises(ValueError):
            profile(**bad)

    # out: an array('d') or a writable view of n doubles, sharing no memory
    # with the arrays of the call that the kernel reads in place
    n = 5
    w, winv, chi = (array("d", [1.0]) * n for _ in range(3))
    block = memoryview(array("d", [1.0]) * (2 * n))

    def profile_into(out, chi_prev=chi):
        return kernels.excite_profile(0.1, w, winv, chi_prev, 0.5, out)

    out = zeros(n)
    assert profile_into(out) is out
    row = block[n:]
    assert profile_into(row, chi_prev=block[:n]) is row
    assert out.tobytes() == profile(n).tobytes() == row.tobytes()
    for bad in (zeros(n - 2), zeros(n + 2), np.empty(n), np.empty((1, n)),
                array("f", [0.0]) * n, array("q", [0]) * n,
                block[::2], [0.0] * n, memoryview(zeros(n)).toreadonly(),
                w, winv, chi):
        with pytest.raises(ValueError):
            profile_into(bad)
    with pytest.raises(ValueError):     # overlaps chi_prev by one element
        profile_into(block[n - 1:2 * n - 1], chi_prev=block[:n])
    # a NumPy view of out is copied before out is written, so it gives
    # the profile of out's values before the call
    expected = profile_into(zeros(n), chi_prev=out[:])
    assert profile_into(out, chi_prev=np.asarray(out)) is out
    assert out.tobytes() == expected.tobytes()


def test_workspace_changes_no_bit(gs_quartic, gs_soluble, profile_backend):
    # a step into a reused out that holds the last step's iterate writes
    # the bits of a step into a new array, and so does its residual
    for gs in (gs_quartic, gs_soluble):
        out = array("d", [math.nan]) * gs.grid.n_points
        prev = IterationState(chi=TrialFunction.linear().sample(gs.grid))
        for _ in range(2):      # the second step reuses a dirty out
            fresh = iterate_once(gs, prev, 1.0)
            into = iterate_once(gs, prev, 1.0, out=out)
            assert into.chi is out
            assert out.tobytes() == fresh.chi.tobytes()
            assert into.eps == fresh.eps
            assert orthogonality_residual(gs, fresh.chi) \
                == orthogonality_residual(gs, np.asarray(out))
            prev = fresh


def _peak_bytes(step):
    """Peak of the memory traced while step() runs."""
    tracemalloc.start()
    try:
        result = step()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_step_allocates_only_the_iterate(gs_quartic, gs_soluble,
                                         profile_backend):
    # a ground state holds its weights, so one step's only grid-sized
    # allocation is the chi it returns (8 B a node), and given out,
    # nothing of grid size, but for the Python kernel's temporaries, all
    # array('d'): at their peak an integrand, its running integral and one
    # more of the reversal or the inner integral, 24 B a node, and up to
    # 2 B more for the integrand, an array grown from a generator; 2 KB
    # covers the small Python objects
    for gs in (gs_quartic, gs_soluble):
        n = gs.grid.n_points
        temporary = 26 * n if profile_backend == "python" else 0
        prev = IterationState(chi=TrialFunction.saturating().sample(
            gs.grid))
        state, peak = _peak_bytes(lambda: iterate_once(gs, prev, 1.0))
        assert peak <= 8 * n + temporary + 2048
        out = zeros(n)
        into, peak = _peak_bytes(
            lambda: iterate_once(gs, prev, 1.0, out=out))
        assert peak <= temporary + 2048
        assert into.chi is out
        assert into.chi.tobytes() == state.chi.tobytes()
        assert into.eps == state.eps


def test_warm_run_allocates_only_its_block(gs_quartic, monkeypatch):
    # a ground state holds its weights, so a run's one grid-sized
    # allocation is its block of iterates; the compiled kernels allocate
    # nothing.  8 KB covers the small Python objects (the report, its
    # states and their rows: 3.8-6 KB), and one more grid array at this
    # size is 128 KB
    try:
        compiled = kernels.get_backend("cython")
    except ImportError as exc:
        pytest.skip(str(exc))
    for name in ("excite_profile", "weighted_simpson", "scale",
                 "sample_nodes"):
        monkeypatch.setattr(kernels, name, getattr(compiled, name))
    n = gs_quartic.grid.n_points
    peaks = {}
    for trial in (TrialFunction.linear(), TrialFunction.saturating()):
        report, peaks[trial.kind] = _peak_bytes(
            lambda: run(gs_quartic, trial))
        assert len(report.states[0].chi.obj) == BLOCK_ROWS * n
        assert peaks[trial.kind] <= 8 * n * BLOCK_ROWS + 8192
    # chi_0 is written straight into its row, so the saturating trial
    # costs no grid array more than the linear one (it cost two when it
    # was built apart and copied in); the small Python objects of two
    # runs differ by up to 2 KB
    assert peaks["saturating"] <= peaks["linear"] + 2048


def test_run_writes_its_iterates_into_one_block(gs_quartic):
    report = run(gs_quartic, TrialFunction.saturating(), tol=0.0)
    chis = [s.chi for s in report.states]
    assert len(chis) == BLOCK_ROWS == 9
    # each a writable view of n doubles in one array('d')
    assert type(chis[0].obj) is array and chis[0].obj.typecode == "d"
    assert all(chi.obj is chis[0].obj and not chi.readonly
               and len(chi) == gs_quartic.grid.n_points for chi in chis)
    # no iterate kept by the report is a view of another
    for i, a in enumerate(chis):
        for b in chis[i + 1:]:
            assert not np.shares_memory(a, b)


def _allocating_eps(gs, trial, steps):
    """eps_1 .. eps_steps at anchor 1 from steps that allocate their chi."""
    state = IterationState(chi=trial.sample(gs.grid))
    eps = []
    for _ in range(steps):
        state = iterate_once(gs, state, 1.0)
        eps.append(state.eps)
    return eps


def _block_rows(report, n):
    """Rows of each block that holds the report's iterates, in order."""
    blocks = {id(s.chi.obj): s.chi.obj for s in report.states}
    return [len(b) // n for b in blocks.values()]


def test_run_past_one_block_changes_no_bit(profile_backend):
    # delta = 1.5 on 201 nodes neither converges nor stalls in 20 steps
    gs = soluble_groundstate(1.5, Grid(1.0, 201))
    trial = TrialFunction.saturating()
    report = run(gs, trial, max_iters=20, tol=0.0)
    assert report.status == "max_iters"
    assert _block_rows(report, 201) == [BLOCK_ROWS, BLOCK_ROWS, 3]
    assert [e.hex() for e in report.eps_sequence] \
        == [e.hex() for e in _allocating_eps(gs, trial, 20)]


def test_run_reserves_rows_as_it_goes():
    # a huge max_iters reserves at most BLOCK_ROWS - 1 rows beyond those
    # used, and stops where a run with room to spare stops
    gs = soluble_groundstate(1.5, Grid(1.0, 2001))
    trial = TrialFunction.saturating()
    report = run(gs, trial, max_iters=10**12)
    reference = run(gs, trial, max_iters=100)
    assert report.status == reference.status != "max_iters"
    assert report.eps_sequence == reference.eps_sequence
    assert report.delta_sequence == reference.delta_sequence
    reserved = sum(_block_rows(report, 2001))
    assert len(report.states) <= reserved < len(report.states) + BLOCK_ROWS


# (scripted eps_1, eps_2, ..., tol, max_iters, status, steps taken)
STOPPING_CASES = {
    # delta_4 = 2^-40 <= 1e-9 * eps_4
    "converged": ((1.0, 0.5, 0.25, 0.25 + 2.0 ** -40), 1e-9, 8,
                  "converged", 4),
    # deltas 1, 2, 3, 1, 2, 3, 4: the fall to 1 resets the stall count
    "stalled-after-reset": ((1.0, 2.0, 4.0, 7.0, 8.0, 10.0, 13.0, 17.0,
                             22.0), 1e-9, 20, "stalled", 8),
    # equal deltas count as a stall
    "stalled-on-equal-deltas": ((1.0, 2.0, 3.0, 4.0, 5.0, 6.0), 1e-9, 20,
                                "stalled", 5),
    # deltas halve but stay above tol
    "max-iters": (tuple(1.0 + 2.0 ** -k for k in range(1, 12)), 1e-9, 6,
                  "max_iters", 6),
    "max-iters-1": ((1.0, 1.0), 1e-9, 1, "max_iters", 1),
    # delta_2 = 1 <= 0.5 * eps_2, the bound itself (tol < 1)
    "converged-at-step-2": ((1.0, 2.0, 9.0), 0.5, 8, "converged", 2),
}


@pytest.mark.parametrize("case", STOPPING_CASES)
def test_run_stops_by_its_rule(case, monkeypatch):
    script, tol, max_iters, status, steps = STOPPING_CASES[case]
    scripted = iter(script)

    def step(gs, prev, anchor_x0, out=None):
        out[:] = prev.chi
        return IterationState(chi=out, eps=next(scripted))

    monkeypatch.setattr(excite, "iterate_once", step)
    gs = soluble_groundstate(DELTA, Grid(1.0, 5))
    report = run(gs, TrialFunction.linear(), max_iters=max_iters, tol=tol)
    eps = list(script[:steps])
    assert report.status == status
    assert report.eps_sequence == eps
    assert report.delta_sequence == [abs(b - a) for a, b in
                                     zip(eps, eps[1:])]
    assert report.eps == eps[-1]
    assert report.e_odd == gs.e_gd + eps[-1]
    assert report.e_mean == gs.e_gd + 0.5 * eps[-1]
    assert len(report.states) == steps + 1
    assert len(report.orth_residuals) == steps


def _five_pass_residual(w, chi, h):
    """The residual by its five-pass route: w chi, Simpson, |chi|, times
    w, Simpson; returns (half, norm, residual)."""
    half = simpson_integral(w * chi, h)
    norm = 2.0 * simpson_integral(np.abs(chi) * w, h)
    return half, norm, 0.0 if norm == 0.0 else (half - half) / norm


def _same_or_both_nan(a, b):
    return a.hex() == b.hex() or (math.isnan(a) and math.isnan(b))


@st.composite
def residual_arguments(draw):
    """(ground state, chi) of an odd length in [3, 101]: S with +inf in it
    (exact zeros of w) and finite values wide enough for w to underflow;
    chi with negative values, both zeros, both infinities and NaN."""
    n = 2 * draw(st.integers(1, 50)) + 1
    s = draw(arrays(np.float64, n, elements=st.one_of(
        st.just(np.inf), st.floats(-400.0, 400.0))))
    s[draw(st.integers(0, n - 1))] = 0.0          # one finite sample
    chi = draw(arrays(np.float64, n, elements=st.one_of(
        st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan]),
        st.floats(-1e6, 1e6))))
    gs = GroundState(grid=Grid(1.0, n), s=s, s_prime=np.zeros(n), e_gd=0.0,
                     potential=None)
    return gs, chi


class TestOrthogonality:
    @given(residual_arguments())
    def test_matches_the_five_pass_route(self, args):
        # the residual's kernel gives, on both backends, the two Simpson
        # integrals of the five-pass route, and the residual its value,
        # bit for bit; a NaN may differ only in its sign
        gs, chi = args
        w = np.asarray(gs.scaled_weight[0])
        with np.errstate(all="ignore"):
            half, norm, expected = _five_pass_residual(w, chi, gs.grid.h)
        for name in ("python", "cython"):
            try:
                backend = kernels.get_backend(name)
            except ImportError:
                continue
            integral, absolute = backend.weighted_simpson(gs.grid.h, w, chi)
            assert _same_or_both_nan(integral, half)
            assert _same_or_both_nan(2.0 * absolute, norm)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(kernels, "weighted_simpson",
                           backend.weighted_simpson)
                value = orthogonality_residual(gs, chi)
            assert _same_or_both_nan(value, expected)
            assert value == 0.0 or math.isnan(value)

    def test_odd_extension_is_structural_zero(self, gs_soluble):
        report = run(gs_soluble, TrialFunction.linear(), max_iters=3)
        for r in report.orth_residuals:
            assert r == 0.0

    def test_converged_iterate_residual(self, gs_quartic):
        report = run(gs_quartic, TrialFunction.linear(), max_iters=4)
        chi = report.states[-1].chi
        assert abs(orthogonality_residual(gs_quartic, chi)) <= 1e-12


class TestExcitedWavefunction:
    def test_soluble_shape_is_sine(self, gs_soluble):
        # e^{-S} chi for the converged soluble iterate is proportional to
        # sin(pi x): the spike drops out of the odd state entirely.
        report = run(gs_soluble, TrialFunction.linear(), max_iters=8, tol=1e-9)
        psi = np.exp(-np.asarray(gs_soluble.s)) * report.states[-1].chi
        x = np.asarray(gs_soluble.grid.nodes())
        target = np.sin(np.pi * x)
        i = gs_soluble.grid.index_of(0.5)
        scale = psi[i] / target[i]
        assert np.max(np.abs(psi - scale * target)) < 1e-6 * abs(scale)

    def test_quartic_tail_is_negligible(self, gs_quartic):
        report = run(gs_quartic, TrialFunction.linear(), max_iters=8, tol=1e-9)
        psi = np.exp(-np.asarray(gs_quartic.s)) * report.states[-1].chi
        assert abs(psi[-1]) <= 1e-18 * np.max(np.abs(psi))

    def test_node_at_origin(self, gs_quartic):
        report = run(gs_quartic, TrialFunction.linear(), max_iters=4)
        psi = np.exp(-np.asarray(gs_quartic.s)) * report.states[-1].chi
        assert psi[0] == 0.0
