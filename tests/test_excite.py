"""Tests for the excitation-energy iteration engine."""

import gc
import hashlib
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
    iterate_once,
    orthogonality_residual,
    run,
)
from excite_iter.groundstate import (OVERFLOW_EXPONENT, Grid, GroundState,
                                     default_x_max, soluble_groundstate,
                                     solve_groundstate_numeric)
from excite_iter._kernels_py import simpson_integral, zeros
from excite_iter.potential import Quartic
from excite_iter.soluble import epsilon1_closed_form, exact_epsilon
from quadrature import (backends, profile, reference_cumulative,
                        reference_profile, reference_split, reference_step,
                        unnormalized_profile, watson_tail)
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
    that a step's first pass computes (test_numerics checks the kernels
    against reference_cumulative bit for bit)."""
    w, u_ref, _ = gs.scaled_weight
    y = np.asarray(w) * chi_prev
    scaled = reference_cumulative(y[::-1], gs.grid.h)[::-1]
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
def step_backend(request, monkeypatch):
    """Makes the iteration use the named backend's step kernel."""
    try:
        step = kernels.get_backend(request.param).excite_step
    except ImportError as exc:
        pytest.skip(str(exc))
    monkeypatch.setattr(kernels, "excite_step", step)
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
                mp.setattr(kernels, "excite_step", backend.excite_step)
                chihat = unnormalized_profile(gs, chi)
                # an array filled with NaN, as a reused out may be
                out = array("d", [math.nan]) * n
                assert unnormalized_profile(gs, chi, out=out) is out
            assert out.tobytes() == chihat.tobytes()
            results.append(chihat.tobytes())
            assert np.isfinite(chihat).all()
        assert results[0] == results[1]
    if case == "harmonic-winv-0-in-tail":
        assert (np.asarray(gs.scaled_weight[2]) == 0.0).sum() > n // 4
    elif gs.s[-1] != np.inf:                  # no hard wall
        assert gs.scaled_weight[0][-1] != 0.0  # a nonzero Watson tail


@pytest.mark.parametrize("case", PROFILE_CASES)
def test_step_backends_agree_with_the_two_call_path(case):
    # the step kernel gives the bytes of the two-call path, the profile
    # and then a scale by eps, as NumPy's reference_split forms them, and
    # the unscaled chihat[i0], on each backend, into an out that holds
    # NaN: anchors at even and odd nodes, at node 1, at the last node (the
    # hard wall of the soluble cases) and at node 0, where chihat is 0 and
    # the step gives the unscaled reference_profile, as it does at every
    # anchor for a chi of -0.0
    gs = PROFILE_CASES[case]()
    n, h = gs.grid.n_points, gs.grid.h
    w, _, winv = gs.scaled_weight
    rng = np.random.default_rng(11)
    anchors = sorted({0, 1, 2, n // 2 - 1, n // 2, n - 2, n - 1})
    assert {i0 % 2 for i0 in anchors[1:-1]} == {0, 1}
    for chi in (TrialFunction.saturating().sample(gs.grid),
                array("d", rng.standard_normal(n)), array("d", [-0.0]) * n):
        tail = watson_tail(gs, chi)
        chihat = reference_profile(h, w, winv, chi, tail)
        for i0 in anchors:
            at = float(chihat[i0])
            expected = chihat if at == 0.0 else reference_split(chihat,
                                                                chi, i0)[0]
            for backend in backends():
                out = array("d", [math.nan]) * n
                got = backend.excite_step(h, gs.step_weights, chi, tail, i0,
                                          out)
                assert out.tobytes() == expected.tobytes()
                assert got.hex() == at.hex()
            if i0 == 0 or not any(chi):
                assert at == 0.0
            else:
                assert out[i0] == chi[i0] and at != 0.0


def _step_of(backend):
    """The named backend's step kernel, or a skip."""
    try:
        return kernels.get_backend(backend).excite_step
    except ImportError as exc:
        pytest.skip(str(exc))


@pytest.mark.parametrize("backend", ["python", "cython"])
def test_profile_rejects_arrays_it_cannot_use(backend):
    _check_step_contract(_step_of(backend), 0)


@pytest.mark.parametrize("backend", ["python", "cython"])
def test_step_rejects_arrays_it_cannot_use(backend):
    _check_step_contract(_step_of(backend), 2)


def _check_step_contract(excite_step, i0):
    """The contract of a step's arrays at anchor i0 of a 5-node grid: at
    node 0 the step is the profile alone, which scales nothing and
    returns 0.0."""
    gs = harmonic(4.0, 5)
    chi = array("d", [0.0, 1.0, 2.0, 3.0, 4.0])

    def step(out, chi_prev=chi, weights=gs.step_weights, i0=i0):
        return excite_step(gs.grid.h, weights, chi_prev, 0.5, i0, out)

    out = zeros(5)
    if i0 == 0:
        assert step(out) == 0.0
        w, _, winv = gs.scaled_weight
        assert out.tobytes() == reference_profile(gs.grid.h, w, winv, chi,
                                                  0.5).tobytes()
    else:
        assert step(out) != 0.0 and out[i0] == chi[i0]
    for bad in (-1, 5):
        with pytest.raises(ValueError, match="need 0 <= i0 < n"):
            step(zeros(5), i0=bad)

    # odd lengths of at least 3, of one length with the weights; NumPy
    # weights and a list chi_prev are converted first
    def weights_of(n):
        return kernels.in_place(np.ones(n)), kernels.in_place(np.ones(n))

    small = zeros(3)
    step(small, chi_prev=[1.0] * 3, weights=weights_of(3))
    assert small[i0] == (0.0 if i0 == 0 else 1.0)
    for n, n_w in ((4, 4), (1, 1), (5, 7), (4, 5), (3, 5), (7, 5), (1, 5)):
        with pytest.raises(ValueError):
            step(zeros(n), chi_prev=[1.0] * n, weights=weights_of(n_w))

    # out: an array('d') or a writable view of n doubles, sharing no
    # memory with chi_prev or with the weights
    w_array, winv_array = (values.obj for values, _ in gs.step_weights)
    block = memoryview(array("d", [1.0]) * 10)
    for bad in (zeros(3), zeros(7), np.empty(5), np.empty((1, 5)),
                array("f", [0.0]) * 5, array("q", [0]) * 5, block[::2],
                [0.0] * 5, memoryview(zeros(5)).toreadonly(), chi,
                w_array, winv_array, memoryview(w_array),
                memoryview(winv_array)):
        with pytest.raises(ValueError):
            step(bad)
    row = block[5:]
    ones = array("d", [1.0]) * 5
    assert step(row, chi_prev=block[:5]) == step(out, chi_prev=ones)
    assert row.tobytes() == out.tobytes()
    with pytest.raises(ValueError):     # overlaps chi_prev by one element
        step(block[4:9], chi_prev=block[:5])
    # a NumPy view of out is copied before out is written, so it gives
    # the step from out's values before the call
    expected = zeros(5)
    step(expected, chi_prev=out[:])
    step(out, chi_prev=np.asarray(out))
    assert out.tobytes() == expected.tobytes()


# sha256 of every iterate's bytes, then of the eps_sequence as float.hex
# joined by ',', of default runs on 4001 nodes, recorded before a step
# was one kernel call: every byte is kept
_PINNED_RUNS = {
    ("soluble", 0.1, "linear", 0.5):
        "e083a1791576029195632cb24d76b31a3c9e859557881172b34793958e994866",
    ("soluble", 0.1, "linear", 1.0):
        "847aba2075fb8481239b1f9748352066003ae9626e30120fc0ca5fc83caed9ab",
    ("soluble", 0.1, "saturating", 0.5):
        "3be332677b05bbf46b86c6cf601e461ac5e9be3eb67a66cf7d118d5100812a94",
    ("soluble", 0.1, "saturating", 1.0):
        "d9df4a91b807a8141490c13374961e2e98984f061bdbcfde42258016c0b57c39",
    ("quartic", 3.0, "linear", 0.5):
        "db0d1e026f62b95674942ea04c4c067960902b785bf81ee334072a29e179a3e3",
    ("quartic", 3.0, "linear", 1.0):
        "894e8c64b20864f5acc8185046267f1ab6be6eebf4cdb46dba9250a605ea79d9",
    ("quartic", 3.0, "saturating", 0.5):
        "739df3b2857581dae4b9079589ceb408026f670c18d6b547b6831466e43a446f",
    ("quartic", 3.0, "saturating", 1.0):
        "ce192f70c4e0ceade32622d5e442eeafb17b466d448e521664f0960ef446984c",
    ("quartic", 8.0, "linear", 0.5):
        "73ad1667486f55f7dd662e4bfa30477e25ba339d4e2d076ef747e5d78e1372be",
    ("quartic", 8.0, "linear", 1.0):
        "8a8a72843247fb9bbb9f8c29cbb50627f6c0e9227bf7ae514a1343b910a6f2de",
    ("quartic", 8.0, "saturating", 0.5):
        "59e7110aefed6325e4a168a6fb3998ccd262845b7616fa5593c5d026cca1701f",
    ("quartic", 8.0, "saturating", 1.0):
        "1671e472499a5f658368e8b2785cc831b38f018cda19366fbf9e541aa50ed6f8",
}


@pytest.mark.parametrize("backend", ["python", "cython"])
def test_run_bytes_are_pinned(monkeypatch, backend):
    try:
        chosen = kernels.get_backend(backend)
    except ImportError as exc:
        pytest.skip(str(exc))
    for name in ("excite_step", "weighted_simpson", "sample_nodes"):
        monkeypatch.setattr(kernels, name, getattr(chosen, name))
    states = {
        ("soluble", 0.1): soluble_groundstate(0.1, Grid(1.0, 4001)),
        **{("quartic", g): solve_groundstate_numeric(
            Quartic(g), Grid(default_x_max(g), 4001)) for g in (3.0, 8.0)}}
    digests = {}
    for case, param, trial, anchor in _PINNED_RUNS:
        report = run(states[case, param], TrialFunction(trial),
                     anchor_x0=anchor)
        digest = hashlib.sha256()
        for state in report.states:
            digest.update(bytes(state.chi))
        digest.update(",".join(e.hex() for e in report.eps_sequence)
                      .encode())
        digests[case, param, trial, anchor] = digest.hexdigest()
    assert digests == _PINNED_RUNS


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


@given(profile_arguments(), st.integers(0, 200))
def test_profile_backends_agree_on_random_arrays(args, k):
    # each backend's step split at node k mod n gives the bytes of NumPy's
    # profile split by eps and pinned (reference_split), or where
    # chihat[i0] is 0 the unscaled profile, into an out that holds NaN
    h, w, winv, chi, tail = args
    n = len(chi)
    i0 = k % n
    weights = (kernels.in_place(w), kernels.in_place(winv))
    chihat = reference_profile(h, w, winv, chi, tail)
    at = float(chihat[i0])
    expected = chihat if at == 0.0 else reference_split(chihat, chi, i0)[0]
    for backend in backends():
        out = array("d", [math.nan]) * n
        assert backend.excite_step(h, weights, chi, tail, i0, out).hex() \
            == at.hex()
        assert out.tobytes() == expected.tobytes()


# the drawn NaN is math.nan alone: where NaNs of both signs meet in a
# commutative operation, which one comes out is the C compiler's choice of
# operand order, not the source's, and inputs holding a NaN of each sign
# gave different bytes.  The NaNs that inf - inf and 0 * inf make agreed
# in every draw tried
EXTREMES = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e308, -1e308]


@st.composite
def extreme_profile_arguments(draw):
    """profile_arguments with up to a fifth of each array, and the tail
    one time in two, drawn from EXTREMES: NaN, +-inf, -0.0, the least
    subnormal and +-1e308."""
    h, *columns, tail = draw(profile_arguments())
    n = len(columns[0])
    extreme = st.sampled_from(EXTREMES)
    for column in columns:
        for i in draw(st.lists(st.integers(0, n - 1), max_size=n // 5 + 1)):
            column[i] = draw(extreme)
    return (h, *columns, draw(st.one_of(st.just(tail), extreme)))


@given(extreme_profile_arguments())
def test_profile_backends_agree_on_extreme_arrays(args):
    # NaN, inf and overflow propagate through both passes by the same
    # operations on both backends, to the byte, NaN payloads included
    try:
        compiled = kernels.get_backend("cython")
    except ImportError as exc:
        pytest.skip(str(exc))
    python, cython = (profile(backend, *args).tobytes()
                      for backend in (kernels.get_backend("python"),
                                      compiled))
    assert python == cython


@given(st.integers(2, 400), st.floats(1e-3, 40.0), st.booleans())
def test_node_backends_agree_bit_for_bit(n, x_max, saturating):
    # the nodes are NumPy's linspace to the byte, and the saturating
    # trial the bytes of its np.where form
    h = x_max / (n - 1)
    samples = {backend.sample_nodes(n, h, x_max, saturating,
                                    zeros(n)).tobytes()
               for backend in backends()}
    assert len(samples) == 1
    x = np.linspace(0.0, x_max, n)
    expected = np.where(x < 1.0, x * (2.0 - x), 1.0) if saturating else x
    assert samples == {expected.tobytes()}


def test_compiled_profile_reads_each_calls_weights():
    # weights built on every call (profile calls in_place on each): the
    # compiled step must give the Python kernel's bytes when ground states
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
            profile(backend, 0.005, w, winv, chi, 0.25).tobytes()
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


def test_workspace_changes_no_bit(gs_quartic, gs_soluble, step_backend):
    # a step into a reused out that holds the last step's iterate writes
    # the bits of a step into a new array, the NumPy step's, and so does
    # its residual
    for gs in (gs_quartic, gs_soluble):
        out = array("d", [math.nan]) * gs.grid.n_points
        prev = IterationState(chi=TrialFunction.linear().sample(gs.grid))
        for _ in range(2):      # the second step reuses a dirty out
            fresh = iterate_once(gs, prev, 1.0)
            into = iterate_once(gs, prev, 1.0, out=out)
            assert into.chi is out
            assert out.tobytes() == fresh.chi.tobytes()
            assert into.eps == fresh.eps
            chi, eps = reference_step(gs, prev.chi, gs.grid.index_of(1.0))
            assert out.tobytes() == chi.tobytes()
            assert into.eps.hex() == eps.hex()
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
                                         step_backend):
    # a ground state holds its weights, so one step's only grid-sized
    # allocation is the chi it returns (8 B a node), and given out,
    # nothing of grid size on either backend: both passes of the profile
    # run in out; 2 KB covers the small Python objects
    for gs in (gs_quartic, gs_soluble):
        n = gs.grid.n_points
        prev = IterationState(chi=TrialFunction.saturating().sample(
            gs.grid))
        state, peak = _peak_bytes(lambda: iterate_once(gs, prev, 1.0))
        assert peak <= 8 * n + 2048
        out = zeros(n)
        into, peak = _peak_bytes(
            lambda: iterate_once(gs, prev, 1.0, out=out))
        assert peak <= 2048
        assert into.chi is out
        assert into.chi.tobytes() == state.chi.tobytes()
        assert into.eps == state.eps
        chi, _ = reference_step(gs, prev.chi, gs.grid.index_of(1.0))
        assert into.chi.tobytes() == chi.tobytes()


def test_warm_run_allocates_only_its_block(gs_quartic, monkeypatch):
    # a ground state holds its weights, so a run's one grid-sized
    # allocation is its block of iterates: one kernels.empty call, a
    # bytearray of 8 BLOCK_ROWS n bytes that tracemalloc sees.  The
    # compiled kernels allocate nothing, so everything else is the small
    # Python objects (the report, its states and their rows: 3.8-6 KB),
    # in 8 KB; one more grid array at this size is 128 KB
    _run_on(monkeypatch, "cython")
    empty, sizes = kernels.empty, []

    def counting_empty(n):
        sizes.append(n)
        return empty(n)

    monkeypatch.setattr(kernels, "empty", counting_empty)
    n = gs_quartic.grid.n_points
    peaks = {}
    for trial in (TrialFunction.linear(), TrialFunction.saturating()):
        sizes.clear()
        _, peaks[trial.kind] = _peak_bytes(
            lambda: run(gs_quartic, trial))
        assert sizes == [BLOCK_ROWS * n]
        assert peaks[trial.kind] <= 8 * BLOCK_ROWS * n + 8192
    # chi_0 is written straight into its row, so the saturating trial
    # costs no grid array more than the linear one (it cost two when it
    # was built apart and copied in); the small Python objects of two
    # runs differ by up to 2 KB
    assert peaks["saturating"] <= peaks["linear"] + 2048


def test_run_writes_its_iterates_into_one_block(gs_quartic):
    report = run(gs_quartic, TrialFunction.saturating(), tol=0.0)
    chis = [s.chi for s in report.states]
    assert len(chis) == BLOCK_ROWS == 9
    # each a writable view of n doubles, the rows of one block in order
    n = gs_quartic.grid.n_points
    block = chis[0].obj
    assert memoryview(block).nbytes == 8 * BLOCK_ROWS * n
    assert all(chi.obj is block and not chi.readonly and chi.format == "d"
               and len(chi) == n for chi in chis)
    start = np.asarray(chis[0]).ctypes.data
    assert [np.asarray(chi).ctypes.data - start for chi in chis] \
        == [8 * n * k for k in range(BLOCK_ROWS)]
    # no iterate kept by the report is a view of another
    for i, a in enumerate(chis):
        for b in chis[i + 1:]:
            assert not np.shares_memory(a, b)


@pytest.mark.parametrize("backend", ["python", "cython"])
def test_empty_gives_writable_doubles_or_a_memory_error(backend):
    # one allocator serves both backends: its view is an out the named
    # backend's step kernel writes as it writes an array('d')
    excite_step = _step_of(backend)
    view = kernels.empty(5)
    assert (view.format, view.shape, view.c_contiguous, view.readonly) \
        == ("d", (5,), True, False)
    view[:] = array("d", [0.5, -1.0, 2.0, 3.0, 4.0])
    assert view.tolist() == [0.5, -1.0, 2.0, 3.0, 4.0]
    gs = harmonic(4.0, 5)
    chi = array("d", [0.0, 1.0, 2.0, 3.0, 4.0])
    out = zeros(5)
    assert excite_step(gs.grid.h, gs.step_weights, chi, 0.5, 2, view) \
        == excite_step(gs.grid.h, gs.step_weights, chi, 0.5, 2, out)
    assert view.tobytes() == out.tobytes()
    assert len(kernels.empty(0)) == 0
    # 8 n overflows a buffer's size; 2**62 bytes at once cannot be had
    for n in (2 ** 60, 2 ** 59):
        with pytest.raises(MemoryError):
            kernels.empty(n)
    with pytest.raises(ValueError):
        kernels.empty(-1)


def test_blocks_leave_no_cyclic_garbage():
    # a block is freed by reference counting alone: blocks of 40 sizes
    # leave nothing for the cycle collector to find, where a ctypes array
    # type made for each size would leave 7 cyclic objects apiece
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        for n in range(1000, 1040):
            kernels.empty(n)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def _traced() -> int:
    """Bytes that tracemalloc traces now."""
    return tracemalloc.get_traced_memory()[0]


def _run_on(monkeypatch, backend):
    """Makes a run use the named backend's kernels, or skips."""
    try:
        chosen = kernels.get_backend(backend)
    except ImportError as exc:
        pytest.skip(str(exc))
    for name in ("excite_step", "weighted_simpson", "sample_nodes"):
        monkeypatch.setattr(kernels, name, getattr(chosen, name))


@pytest.mark.parametrize("backend", ["python", "cython"])
def test_a_block_lives_as_long_as_a_row_of_it(gs_quartic, monkeypatch,
                                              backend):
    # traced memory falls by the whole block when the last row of it
    # dies, and by less than one row while a row is kept
    _run_on(monkeypatch, backend)
    block = 8 * BLOCK_ROWS * gs_quartic.grid.n_points
    tracemalloc.start()
    try:
        report = run(gs_quartic, TrialFunction.saturating())
        kept = report.states[3].chi
        expected = bytes(kept)
        before = _traced()
        del report
        assert before - _traced() < 8 * gs_quartic.grid.n_points
        assert bytes(kept) == expected
        before = _traced()
        del kept
        assert block <= before - _traced() <= block + 1024
        report = run(gs_quartic, TrialFunction.linear())
        before = _traced()
        del report
        assert block <= before - _traced() <= block + 8192
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("backend", ["python", "cython"])
def test_a_failed_run_frees_its_block(gs_quartic, monkeypatch, backend):
    # a trial that vanishes at the anchor fails the run once sample_nodes
    # has written chi_0 into the block
    _run_on(monkeypatch, backend)
    empty, sizes = kernels.empty, []

    def recording_empty(n):
        sizes.append(n)
        return empty(n)

    monkeypatch.setattr(kernels, "empty", recording_empty)
    n = gs_quartic.grid.n_points
    tracemalloc.start()
    try:
        with pytest.raises(DegenerateAnchorError) as caught:
            run(gs_quartic, TrialFunction.linear(), anchor_x0=0.0)
        assert sizes == [BLOCK_ROWS * n]
        # the traceback holds the run's frame, and so its block
        before = _traced()
        del caught
        freed = before - _traced()
    finally:
        tracemalloc.stop()
    assert 8 * BLOCK_ROWS * n <= freed <= 8 * BLOCK_ROWS * n + 8192


@pytest.mark.parametrize("backend", ["python", "cython"])
def test_no_row_is_read_before_it_is_written(monkeypatch, backend):
    # blocks of iterates that hold NaN until a kernel writes them give
    # the pinned bytes on each backend's kernels: every node a run keeps
    # or reads was written first
    empty, sizes = kernels.empty, []

    def poisoned_empty(n):
        block = empty(n)
        block[:] = array("d", [math.nan]) * n
        sizes.append(n)
        return block

    monkeypatch.setattr(kernels, "empty", poisoned_empty)
    test_run_bytes_are_pinned(monkeypatch, backend)
    assert sizes == [BLOCK_ROWS * 4001] * len(_PINNED_RUNS)


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
    return [memoryview(b).nbytes // (8 * n) for b in blocks.values()]


def test_run_past_one_block_changes_no_bit(step_backend):
    # delta = 1.5 on 201 nodes neither converges nor stalls in 20 steps;
    # its eps are those of steps that allocate, and its iterates and eps
    # those of the NumPy steps
    gs = soluble_groundstate(1.5, Grid(1.0, 201))
    trial = TrialFunction.saturating()
    report = run(gs, trial, max_iters=20, tol=0.0)
    assert report.status == "max_iters"
    assert _block_rows(report, 201) == [BLOCK_ROWS, BLOCK_ROWS, 3]
    assert [e.hex() for e in report.eps_sequence] \
        == [e.hex() for e in _allocating_eps(gs, trial, 20)]
    chi = trial.sample(gs.grid)
    for state in report.states[1:]:
        chi, eps = reference_step(gs, chi, 200)
        assert bytes(state.chi) == chi.tobytes()
        assert state.eps.hex() == eps.hex()


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
