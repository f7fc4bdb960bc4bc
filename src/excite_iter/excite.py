"""Iterative refinement of the lowest odd excited state.

Each step maps chi_{n-1} to the unnormalized profile

    chihat(x) = 2 * int_0^x e^{2S(y)} int_y^inf e^{-2S(z)} chi_{n-1}(z) dz dy

and splits off the excitation energy with the fixed-point rule
chi_n(x0) = chi_{n-1}(x0) (= chi_0(x0) by induction), i.e. eps_n =
chi_{n-1}(x0) / chihat(x0).  All functions are odd in x and stored on
x >= 0 only; full-line integrals use the parity factor analytically.
"""

from __future__ import annotations

import math
from array import array

from . import kernels
from .errors import DegenerateAnchorError
from .groundstate import GroundState
from .kernels import as_doubles, check_out, in_place, zeros

TRIAL_KINDS = ("linear", "saturating", "tabulated")

#: run's defaults: the anchor x0, the step limit and the relative tolerance
DEFAULT_ANCHOR_X0 = 1.0
DEFAULT_MAX_ITERS = 8
DEFAULT_TOL = 1e-9


class TrialFunction:
    """Odd seed function chi_0, represented on x >= 0.

    linear:     chi_0(x) = x
    saturating: chi_0(x) = x(2-x) on [0, 1), then 1
    tabulated:  grid-aligned finite samples (must vanish at x = 0)
    """

    __slots__ = ("kind", "values")

    def __init__(self, kind: str, values=None):
        if kind not in TRIAL_KINDS:
            raise ValueError(f"unknown trial kind {kind!r}")
        if kind == "tabulated":
            values = as_doubles(values)
            if not values:
                raise ValueError("tabulated trial needs samples in a 1-D "
                                 "array, got shape (0,)")
            if not all(map(math.isfinite, values)):
                raise ValueError("tabulated trial samples must be finite")
            if values[0] != 0.0:
                raise ValueError("odd trial must vanish at x = 0")
        elif values is not None:
            raise ValueError(f"{kind} trial takes no samples")
        self.kind = kind
        self.values = values

    @classmethod
    def linear(cls):
        return cls("linear")

    @classmethod
    def saturating(cls):
        return cls("saturating")

    @classmethod
    def tabulated(cls, values):
        return cls("tabulated", values)

    def sample(self, grid, out=None):
        """chi_0 at the grid nodes, in out when given (see
        kernels.check_out), else in a new array('d')."""
        if out is None:
            out = zeros(grid.n_points)
        if self.kind == "tabulated":
            if len(self.values) != grid.n_points:
                raise ValueError(
                    f"tabulated trial has {len(self.values)} samples for a "
                    f"{grid.n_points}-point grid")
            check_out(out, grid.n_points, in_place(self.values))
            out[:] = self.values
            return out
        return kernels.sample_nodes(grid.n_points, grid.h, grid.x_max,
                                    self.kind == "saturating", out)


class IterationState:
    """chi_n on x >= 0 plus the extracted eps_n.

    In the states of a run, chi is a row of a block that holds the run's
    other iterates too: a writable memoryview of the bytearray chi.obj
    from kernels.empty, so keeping one chi keeps that block alive.
    """

    __slots__ = ("chi", "eps")

    def __init__(self, chi: array | memoryview, eps: float | None = None):
        self.chi = chi
        self.eps = eps


class ConvergenceReport:
    """A run's iterates; the eps, delta and energies are read off them."""

    __slots__ = ("states", "orth_residuals", "status", "e_gd")

    def __init__(self, states: list[IterationState],
                 orth_residuals: list[float], status: str, e_gd: float):
        self.states = states
        self.orth_residuals = orth_residuals
        self.status = status           # converged | max_iters | stalled
        self.e_gd = e_gd

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


def iterate_once(gs: GroundState, prev: IterationState, anchor_x0: float,
                 out=None) -> IterationState:
    """One step of the map, split by the rule chi_n(x0) = chi_{n-1}(x0).

    chihat(x) = 2 int_0^x e^{2S(y)} I(y) dy, the outer integrand being
    winv * (e^{-u_ref} I), with the weights w and winv that
    gs.scaled_weight holds from its construction, is scaled by
    eps = chi_{n-1}(x0) / chihat(x0) in the same kernel call.  The tail
    beyond x_max is closed with the first-order Watson estimate
    chi/(2S') * w: +-0 at a hard wall (w = 0, S' = +inf).

    The returned chi is out when given, under the contract of
    kernels.check_out, else a new array('d').  Given out, a step
    allocates nothing of grid size.
    """
    i0 = gs.grid.index_of(anchor_x0)
    if out is None:
        out = zeros(gs.grid.n_points)
    chi_prev = prev.chi
    tail = gs.scaled_weight[0][-1] * chi_prev[-1] / (2.0 * gs.s_prime[-1])
    at = kernels.excite_step(gs.grid.h, gs.step_weights, chi_prev, tail, i0,
                             out)
    if at == 0.0:
        raise DegenerateAnchorError(
            f"unnormalized iterate vanishes at the anchor x0={anchor_x0}")
    # the eps the kernel scaled by: chi_n(x0) = chi_{n-1}(x0) exactly
    return IterationState(chi=out, eps=float(chi_prev[i0]) / at)


def orthogonality_residual(gs: GroundState, chi) -> float:
    """Full-line int e^{-2S} chi, normalized by int e^{-2S} |chi|.

    The stored half-line samples are extended as an odd function, so the
    two half-line contributions cancel structurally: the value is exactly
    zero by construction (NaN only for a chi that is not finite), and it
    checks nothing.  Both Simpson integrals, of w chi and of |w chi|, come
    from one kernel pass: w >= +0, so |w chi| is w |chi| to the bit but
    for the sign of a NaN.
    """
    half, norm = kernels.weighted_simpson(gs.grid.h, gs.scaled_weight[0],
                                          chi)
    norm *= 2.0
    if norm == 0.0:
        return 0.0
    return (half - half) / norm


def run(gs: GroundState, trial: TrialFunction,
        anchor_x0: float = DEFAULT_ANCHOR_X0,
        max_iters: int = DEFAULT_MAX_ITERS,
        tol: float = DEFAULT_TOL) -> ConvergenceReport:
    """Drive iterate_once to convergence of the eps sequence.

    Stops when |eps_n - eps_{n-1}| <= tol * |eps_n|, with 0 <= tol < 1,
    when the delta sequence stops decreasing for three consecutive steps
    (stalled), or at max_iters.  The iterates are written into the rows
    of blocks of min(max_iters + 1, BLOCK_ROWS) rows, one block for a
    default run: a further block is allocated only when the iteration
    goes past one.  No block is filled first: every row a report keeps
    was written whole, and the rows it does not keep hold unspecified
    values.
    """
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    if not 0.0 <= tol < 1.0:
        # a tol >= 1 takes an eps off by its own size as converged; a
        # negative or NaN tol never stops the run
        raise ValueError(f"tol must be in [0, 1), got {tol}")
    rows = _rows(gs.grid.n_points, max_iters + 1)
    chi0 = trial.sample(gs.grid, out=next(rows))
    if chi0[gs.grid.index_of(anchor_x0)] == 0.0:
        raise DegenerateAnchorError(
            f"trial function vanishes at the anchor x0={anchor_x0}; the "
            "fixed-point normalization is undefined")

    states = [IterationState(chi=chi0)]
    residuals: list[float] = []
    status = "max_iters"
    last_delta = None
    stall_count = 0
    for _ in range(max_iters):
        state = iterate_once(gs, states[-1], anchor_x0, out=next(rows))
        states.append(state)
        residuals.append(orthogonality_residual(gs, state.chi))
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
BLOCK_ROWS = DEFAULT_MAX_ITERS + 1


def _rows(n_points: int, count: int):
    """Yields count rows of n_points doubles, in order, as writable views
    of blocks of at most BLOCK_ROWS rows; each block, a bytearray from
    kernels.empty, is allocated when the one before it is used up.  A row
    holds unspecified values until its kernel writes every node of it."""
    while count > 0:
        rows = min(count, BLOCK_ROWS)
        block = kernels.empty(rows * n_points)
        count -= rows
        for k in range(rows):
            yield block[k * n_points:(k + 1) * n_points]
