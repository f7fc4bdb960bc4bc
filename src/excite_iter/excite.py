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
from typing import NamedTuple

import numpy as np

from . import kernels
from .errors import DegenerateAnchorError
from .groundstate import GroundState
from .numerics import simpson_integral

TRIAL_KINDS = ("linear", "saturating", "tabulated")

# exp() overflows just above 709; leave headroom for the product with I
OVERFLOW_EXPONENT = 700.0


@dataclass(frozen=True)
class TrialFunction:
    """Odd seed function chi_0, represented on x >= 0.

    linear:     chi_0(x) = x
    saturating: chi_0(x) = x(2-x) on [0, 1), then 1
    tabulated:  grid-aligned samples (must vanish at x = 0)
    """

    kind: str
    values: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in TRIAL_KINDS:
            raise ValueError(f"unknown trial kind {self.kind!r}")
        if self.kind == "tabulated":
            if self.values is None or len(self.values) == 0:
                raise ValueError("tabulated trial needs samples")
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

    def sample(self, grid) -> np.ndarray:
        """chi_0 at the grid nodes, in a new array."""
        if self.kind == "tabulated":
            if len(self.values) != grid.n_points:
                raise ValueError(
                    f"tabulated trial has {len(self.values)} samples for a "
                    f"{grid.n_points}-point grid")
            return self.values.copy()
        x = grid.nodes()
        return (x if self.kind == "linear"
                else np.where(x < 1.0, x * (2.0 - x), 1.0))


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


class Workspace(NamedTuple):
    """Arrays for one ground state, shared by the steps of a run: a
    scratch float array a, and winv = e^{2S + u_ref} = e^{2(S - S_min)},
    the outer weight.  No result keeps a view of them.

    winv is 0 where 2S + u_ref is not finite (the hard wall) or exceeds
    OVERFLOW_EXPONENT.  Such nodes lie far in the tail, where I carries
    the matching e^{-2S} decay, and chihat at the anchor does not read
    them.  On the default grids 2(S - S_min) stays below 200.
    """

    a: np.ndarray
    winv: np.ndarray

    @classmethod
    def for_groundstate(cls, gs: GroundState) -> Workspace:
        n = gs.grid.n_points
        exponent = 2.0 * gs.s + gs.scaled_weight[1]
        winv = np.zeros(n)
        np.exp(exponent, out=winv, where=exponent <= OVERFLOW_EXPONENT)
        return cls(np.empty(n), winv)


def _unnormalized_profile(gs: GroundState, chi_prev: np.ndarray,
                          work: Workspace | None = None,
                          out: np.ndarray | None = None) -> np.ndarray:
    """chihat(x) = 2 int_0^x e^{2S(y)} I(y) dy, the outer integrand being
    winv * (e^{-u_ref} I), by the active kernel backend.

    The tail beyond x_max is closed with the first-order Watson estimate
    chi/(2S') * w: +-0 at a hard wall (w = 0, S' = +inf).  chihat goes
    into out when given, under the contract of
    _kernels_py.check_profile_out, else into a new array; that array and
    a workspace made when none is given are the only grid arrays
    allocated.
    """
    if work is None:
        work = Workspace.for_groundstate(gs)
    if out is None:
        out = np.empty(gs.grid.n_points)
    w = gs.scaled_weight[0]
    tail = w[-1] * chi_prev[-1] / (2.0 * gs.s_prime[-1])
    return kernels.excite_profile(gs.grid.h, w, work.winv, chi_prev, tail,
                                  work.a, out)


def iterate_once(gs: GroundState, prev: IterationState, anchor_x0: float,
                 work: Workspace | None = None,
                 out: np.ndarray | None = None) -> IterationState:
    """One step of the map, split by the rule chi_n(x0) = chi_{n-1}(x0).

    The returned chi is out when given (see _unnormalized_profile), else
    a new array.  Given a workspace and out, a step allocates nothing of
    grid size; given only a workspace, it allocates only chi.
    """
    i0 = gs.grid.index_of(anchor_x0)
    pinned = prev.chi[i0]
    chi = _unnormalized_profile(gs, prev.chi, work, out)
    if chi[i0] == 0.0:
        raise DegenerateAnchorError(
            f"unnormalized iterate vanishes at the anchor x0={anchor_x0}")
    eps = pinned / chi[i0]
    chi *= eps
    chi[i0] = pinned               # eq. fixed-point rule, exact by definition
    return IterationState(chi=chi, eps=float(eps))


def orthogonality_residual(gs: GroundState, chi: np.ndarray,
                           work: Workspace | None = None) -> float:
    """Full-line int e^{-2S} chi, normalized by int e^{-2S} |chi|.

    The stored half-line samples are extended as an odd function, so the
    two half-line contributions cancel structurally: the value quantifies
    nothing but quadrature asymmetry (it is exactly zero by construction
    here).
    """
    chi = np.asarray(chi, dtype=float)
    w = gs.scaled_weight[0]
    h = gs.grid.h
    buf = work.a if work is not None else None
    half = simpson_integral(np.multiply(w, chi, out=buf), h)
    weighted_abs = np.abs(chi, out=buf)
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
    chi0 = next(rows)
    chi0[...] = trial.sample(gs.grid)
    if chi0[gs.grid.index_of(anchor_x0)] == 0.0:
        raise DegenerateAnchorError(
            f"trial function vanishes at the anchor x0={anchor_x0}; the "
            "fixed-point normalization is undefined")

    work = Workspace.for_groundstate(gs)
    states = [IterationState(chi=chi0)]
    residuals: list[float] = []
    status = "max_iters"
    last_delta = None
    stall_count = 0
    for _ in range(max_iters):
        state = iterate_once(gs, states[-1], anchor_x0, work=work,
                             out=next(rows))
        states.append(state)
        residuals.append(orthogonality_residual(gs, state.chi, work=work))
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
