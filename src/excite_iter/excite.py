"""Iterative refinement of the lowest odd excited state.

Each step maps chi_{n-1} to the unnormalized profile

    chihat(x) = 2 * int_0^x e^{2S(y)} int_y^inf e^{-2S(z)} chi_{n-1}(z) dz dy

and splits off the excitation energy with the fixed-point rule
chi_n(x0) = chi_{n-1}(x0) (= chi_0(x0) by induction), i.e. eps_n =
chi_{n-1}(x0) / chihat(x0).  All functions are odd in x and stored on
x >= 0 only; full-line integrals use the parity factor analytically.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .errors import DegenerateAnchorError
from .groundstate import GroundState
from .numerics import simpson_integral

TRIAL_KINDS = ("linear", "saturating", "tabulated")


@dataclass(frozen=True)
class TrialFunction:
    """Odd seed function chi_0, represented on x >= 0.

    linear:     chi_0(x) = x
    saturating: chi_0(x) = x(2-x) on [0, 1), then 1
    tabulated:  grid-aligned finite samples (must vanish at x = 0)
    """

    kind: str
    values: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in TRIAL_KINDS:
            raise ValueError(f"unknown trial kind {self.kind!r}")
        if self.kind == "tabulated":
            if np.ndim(self.values) != 1 or np.size(self.values) == 0:
                raise ValueError("tabulated trial needs samples in a 1-D "
                                 f"array, got shape {np.shape(self.values)}")
            if not np.isfinite(self.values).all():
                raise ValueError("tabulated trial samples must be finite")
            if self.values[0] != 0.0:
                raise ValueError("odd trial must vanish at x = 0")
        elif self.values is not None:
            raise ValueError(f"{self.kind} trial takes no samples")

    @classmethod
    def linear(cls):
        return cls("linear")

    @classmethod
    def saturating(cls):
        return cls("saturating")

    @classmethod
    def tabulated(cls, values):
        return cls("tabulated", np.asarray(values, dtype=float))

    def sample(self, grid, out: np.ndarray | None = None) -> np.ndarray:
        """chi_0 at the grid nodes, in out when given, else in a new
        array.  Besides out, it allocates at most the nodes."""
        if out is None:
            out = np.empty(grid.n_points)
        if self.kind == "tabulated":
            if len(self.values) != grid.n_points:
                raise ValueError(
                    f"tabulated trial has {len(self.values)} samples for a "
                    f"{grid.n_points}-point grid")
            out[...] = self.values
            return out
        x = grid.nodes()
        if self.kind == "linear":
            out[...] = x
        else:
            # y (2 - y) with y = min(x, 1): x (2 - x) below 1, 1 from 1 on
            np.minimum(x, 1.0, out=x)
            np.subtract(2.0, x, out=out)
            out *= x
        return out


@dataclass(frozen=True)
class IterationState:
    """chi_n on x >= 0 plus the extracted eps_n.

    In the states of a run, chi is a row of a block that holds the run's
    other iterates too, so keeping one chi keeps that block alive.
    """

    chi: np.ndarray
    eps: float | None = None


@dataclass(frozen=True)
class ConvergenceReport:
    """A run's iterates; the eps, delta and energies are read off them."""

    states: list[IterationState] = field(repr=False)
    orth_residuals: list[float]
    status: str                      # converged | max_iters | stalled
    e_gd: float

    @property
    def eps_sequence(self) -> list[float]:
        return [s.eps for s in self.states[1:]]

    @property
    def delta_sequence(self) -> list[float]:
        eps = self.eps_sequence
        return [abs(b - a) for a, b in zip(eps, eps[1:])]

    @property
    def eps(self) -> float:
        return self.states[-1].eps

    @property
    def e_odd(self) -> float:
        return self.e_gd + self.eps

    @property
    def e_mean(self) -> float:
        return self.e_gd + 0.5 * self.eps


def _unnormalized_profile(gs: GroundState, chi_prev: np.ndarray,
                          out: np.ndarray | None = None) -> np.ndarray:
    """chihat(x) = 2 int_0^x e^{2S(y)} I(y) dy, the outer integrand being
    winv * (e^{-u_ref} I) (gs.scaled_weight), by the active kernel backend.

    The tail beyond x_max is closed with the first-order Watson estimate
    chi/(2S') * w: +-0 at a hard wall (w = 0, S' = +inf).  chihat goes
    into out when given, under the contract of
    _kernels_py.check_profile_out, else into a new array.
    """
    if out is None:
        out = np.empty(gs.grid.n_points)
    w, _, winv = gs.scaled_weight
    tail = w[-1] * chi_prev[-1] / (2.0 * gs.s_prime[-1])
    return kernels.excite_profile(gs.grid.h, w, winv, chi_prev, tail, out)


def iterate_once(gs: GroundState, prev: IterationState, anchor_x0: float,
                 out: np.ndarray | None = None) -> IterationState:
    """One step of the map, split by the rule chi_n(x0) = chi_{n-1}(x0).

    The returned chi is out when given (see _unnormalized_profile), else
    a new array.  Given out, a step on the compiled kernel allocates
    nothing of grid size; the Python kernel allocates one temporary.
    """
    i0 = gs.grid.index_of(anchor_x0)
    pinned = prev.chi[i0]
    chi = _unnormalized_profile(gs, prev.chi, out)
    if chi[i0] == 0.0:
        raise DegenerateAnchorError(
            f"unnormalized iterate vanishes at the anchor x0={anchor_x0}")
    eps = pinned / chi[i0]
    chi *= eps
    chi[i0] = pinned               # eq. fixed-point rule, exact by definition
    return IterationState(chi=chi, eps=float(eps))


def orthogonality_residual(gs: GroundState, chi: np.ndarray,
                           scratch: np.ndarray | None = None) -> float:
    """Full-line int e^{-2S} chi, normalized by int e^{-2S} |chi|.

    The stored half-line samples are extended as an odd function, so the
    two half-line contributions cancel structurally: the value quantifies
    nothing but quadrature asymmetry (it is exactly zero by construction
    here).  The weighted samples go into scratch when it is given.
    """
    chi = np.asarray(chi, dtype=float)
    w = gs.scaled_weight[0]
    h = gs.grid.h
    half = simpson_integral(np.multiply(w, chi, out=scratch), h)
    weighted_abs = np.abs(chi, out=scratch)
    weighted_abs *= w
    norm = 2.0 * simpson_integral(weighted_abs, h)
    if norm == 0.0:
        return 0.0
    return (half - half) / norm


def run(gs: GroundState, trial: TrialFunction, anchor_x0: float = 1.0,
        max_iters: int = 8, tol: float = 1e-9) -> ConvergenceReport:
    """Drive iterate_once to convergence of the eps sequence.

    Stops when |eps_n - eps_{n-1}| <= tol * |eps_n|, when the delta
    sequence stops decreasing for three consecutive steps (stalled), or at
    max_iters.  The iterates are written into the rows of blocks of
    min(max_iters + 1, BLOCK_ROWS) rows, one block for a default run: a
    further block is allocated only when the iteration goes past one.
    """
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    rows = _rows(gs.grid.n_points, max_iters + 1)
    chi0 = trial.sample(gs.grid, out=next(rows))
    if chi0[gs.grid.index_of(anchor_x0)] == 0.0:
        raise DegenerateAnchorError(
            f"trial function vanishes at the anchor x0={anchor_x0}; the "
            "fixed-point normalization is undefined")

    scratch = np.empty(gs.grid.n_points)    # the residual's, reused
    states = [IterationState(chi=chi0)]
    residuals: list[float] = []
    status = "max_iters"
    last_delta = None
    stall_count = 0
    for _ in range(max_iters):
        state = iterate_once(gs, states[-1], anchor_x0, out=next(rows))
        states.append(state)
        residuals.append(orthogonality_residual(gs, state.chi, scratch))
        if len(states) == 2:
            continue
        delta = abs(state.eps - states[-2].eps)
        if delta <= tol * abs(state.eps):
            status = "converged"
            break
        if last_delta is not None and delta >= last_delta:
            stall_count += 1
            if stall_count >= 3:
                status = "stalled"
                break
        else:
            stall_count = 0
        last_delta = delta

    return ConvergenceReport(
        states=states, orth_residuals=residuals, status=status,
        e_gd=gs.e_gd)


# rows per block of iterates in run: max_iters + 1 at the default
# max_iters, so a default run allocates its iterates at once
BLOCK_ROWS = inspect.signature(run).parameters["max_iters"].default + 1


def _rows(n_points: int, count: int):
    """Yields count rows of n_points floats, in order, from blocks of at
    most BLOCK_ROWS rows; each block is allocated when the one before it
    is used up."""
    while count > 0:
        block = np.empty((min(count, BLOCK_ROWS), n_points))
        count -= len(block)
        yield from block
