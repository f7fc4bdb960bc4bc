"""Ground-state profiles S(x) = -ln psi_gd(x) on the half-line grid.

Two providers: the analytic hard-wall solution for the DeltaBox benchmark,
and a two-sided shooting solver for the quartic double well that integrates
the log-derivative Riccati equation S'' = S'^2 - 2(V - E) outward from the
origin and inward from a WKB tail, root-finding on the matching mismatch.
"""

from __future__ import annotations

import json
import math
from array import array

from . import kernels
from .errors import NoEigenvalueError, WrongParityError
from .kernels import as_doubles, in_place, zeros
from .potential import DeltaBox, Potential, Quartic

#: mismatch value reported when a sweep blows up (wave-function node)
_BLOWN = 1e15

# exp() overflows just above 709; leave headroom for the product with I
OVERFLOW_EXPONENT = 700.0

#: default_bracket's window factors, and the couplings it is validated for
BRACKET_FACTORS = (0.4, 1.6)
VALIDATED_COUPLINGS = (0.7, 12.0)
_WINDOW = "the energy window ({:g}g, {:g}g)".format(*BRACKET_FACTORS)
_VALIDATED = "[{:g}, {:g}]".format(*VALIDATED_COUPLINGS)
_IN_RANGE = f"default_bracket is validated for g in {_VALIDATED}"


class Grid:
    """Uniform nodes x_i = i*h on [0, x_max] with an odd node count, so the
    composite Simpson rule applies without a remainder panel; h is the
    node spacing x_max / (n_points - 1)."""

    __slots__ = ("x_max", "n_points", "h")

    def __init__(self, x_max: float, n_points: int):
        if not x_max > 0:
            raise ValueError(f"x_max must be positive, got {x_max}")
        if not math.isfinite(x_max):
            raise ValueError(f"x_max must be finite, got {x_max}")
        if n_points < 3 or n_points % 2 == 0:
            raise ValueError(f"n_points must be odd and >= 3, got {n_points}")
        self.x_max = x_max
        self.n_points = n_points
        self.h = x_max / (n_points - 1)

    def nodes(self) -> array:
        """x_i = i * h, the last set to x_max, as a new array('d'): the
        bytes of NumPy's linspace(0, x_max, n_points)."""
        return kernels.sample_nodes(self.n_points, self.h, self.x_max,
                                    False, zeros(self.n_points))

    def index_of(self, x: float) -> int:
        """Index of the node at coordinate x; x must lie on a node."""
        i = int(round(x / self.h)) if math.isfinite(x) else -1
        if not 0 <= i < self.n_points or abs(x - i * self.h) > 1e-9 * self.x_max:
            raise ValueError(f"{x} is not a grid node")
        return i

    def to_dict(self):
        return {"x_max": self.x_max, "n_points": self.n_points}


class GroundState:
    """Samples of S(x_i), S'(x_i) and the ground-state energy, with the
    weights of an iteration step that they fix.

    The iteration is invariant under S -> S + c, so no gauge is stored:
    S(0) is s[0].  A hard wall (compact support ending on the last node)
    is S = S' = +inf on the last node, where the weight is exactly zero.

    s and s_prime are array('d'); other sequences of reals are converted
    on construction.  scaled_weight, both weights of an iteration step,
    is computed then too, as the read-only (w, u_ref, winv): w =
    e^{-2S - u_ref} at the nodes, with u_ref = max(-2S) over the finite
    samples so every sample is representable, zero where -2S is not
    finite; and the outer weight winv = e^{2S + u_ref}.  step_weights
    holds w and winv with their addresses, as kernels.in_place gives
    them, for kernels.excite_step.

    winv is 0 where 2S + u_ref is not finite (the hard wall) or exceeds
    OVERFLOW_EXPONENT.  Such nodes lie far in the tail, where I carries
    the matching e^{-2S} decay, and chihat at the anchor does not read
    them.  On the default grids 2(S - S_min) stays below 200.  Raises
    ValueError when no sample of S is finite.
    """

    __slots__ = ("grid", "s", "s_prime", "e_gd", "potential",
                 "scaled_weight", "step_weights")

    def __init__(self, grid: Grid, s, s_prime, e_gd: float,
                 potential: Potential):
        self.grid = grid
        self.s = as_doubles(s)
        self.s_prime = as_doubles(s_prime)
        self.e_gd = e_gd
        self.potential = potential
        w, winv = zeros(len(self.s)), zeros(len(self.s))
        u_ref = kernels.scaled_weights(self.s, OVERFLOW_EXPONENT, w, winv)
        if u_ref == -math.inf:
            raise ValueError("S has no finite sample")
        self.scaled_weight = (memoryview(w).toreadonly(), u_ref,
                              memoryview(winv).toreadonly())
        self.step_weights = (in_place(self.scaled_weight[0]),
                             in_place(self.scaled_weight[2]))


def soluble_groundstate(delta: float, grid: Grid) -> GroundState:
    """Analytic DeltaBox ground state e^{-S} = sin p(1-x), p = pi - delta.

    The grid must end exactly on the wall x_max = 1; the wall node carries
    zero weight and is excluded from the support.
    """
    pot = DeltaBox(delta)
    if grid.x_max != 1.0:
        raise ValueError(
            f"DeltaBox support is [0, 1]; grid extends to {grid.x_max}")
    s, s_prime = zeros(grid.n_points), zeros(grid.n_points)
    kernels.soluble_profile(grid.h, pot.p, s, s_prime)
    return GroundState(grid=grid, s=s, s_prime=s_prime,
                       e_gd=0.5 * pot.p * pot.p, potential=pot)


def default_bracket(g: float) -> tuple[float, float]:
    """Window (a*g, b*g), (a, b) = BRACKET_FACTORS, validated to hold the even
    ground state and no other even level for g in VALIDATED_COUPLINGS."""
    return BRACKET_FACTORS[0] * g, BRACKET_FACTORS[1] * g


# Domain edges of the form 2^a * 5^b with a <= 3 and b <= 3: these divide
# 2^3 * 5^3 = 0.5 * 2000, so the anchor candidates x = 1.0 and x = 0.5 lie
# exactly on nodes (h divides them) of every grid of 2000k + 1 nodes: the
# default 4001-node grid and its 2001-node half grid among them.  The
# iteration needs the anchor on a node, and the CLI's error estimate
# needs it on both grids.
_EDGE_LADDER = tuple(sorted(
    2.0 ** a * 5.0 ** b
    for a in range(-4, 4) for b in range(-3, 4)
    if 1.0 <= 2.0 ** a * 5.0 ** b <= 40.0))


def default_x_max(g: float) -> float:
    """Smallest commensurate domain edge with weight suppression
    2S(x_max) - 2S(1) >= 100 by the WKB estimate 2S ~ 2g(x^3/3 - x + 2/3),
    keeping truncation error far below the seven-figure targets while all
    exponentials stay representable: the first edge on the ladder of
    grid-commensurate values (2.5, 3.125, 4.0, 5.0, 6.25, ...) that passes,
    or the last one, 40, when none does."""
    return next((e for e in _EDGE_LADDER
                 if e ** 3 / 3.0 - e + 2.0 / 3.0 >= 50.0 / g),
                _EDGE_LADDER[-1])


def _wkb_start(g: float, e: float, x_max: float) -> float:
    """S' at x_max for the decaying WKB tail: k + k'/(2k).  Raises
    ValueError, naming --xmax and --g, when x_max lies inside the
    classically allowed region at energy e, and naming --xmax when the
    start is not finite (V overflows there)."""
    v = 0.5 * g * g * (x_max * x_max - 1.0) ** 2
    if v <= e:
        raise ValueError(
            f"--xmax {x_max} is inside the classically allowed region of "
            f"--g {g} at E={e:.6g} (V(x_max)={v:.6g}): the decaying WKB "
            "tail starts only beyond it; raise --xmax, or keep --g in the "
            f"validated range {_VALIDATED}")
    k = math.sqrt(2.0 * (v - e))
    v_prime = 2.0 * g * g * x_max * (x_max * x_max - 1.0)
    start = k + v_prime / (2.0 * k * k)
    if not math.isfinite(start):
        raise ValueError(
            f"--xmax {x_max} gives the WKB tail no finite start "
            f"(V(x_max)={v:.6g}, S'={start:.6g}); lower --xmax")
    return start


_BRENT_ITERATIONS = 100   # as in SciPy's brentq.c

#: root-finder tolerance on E, in units of max(1, E) at the bracket center
_E_TOL = 1e-12


def _brent(f, lo, hi, f_lo, f_hi, xtol, rtol):
    """Root of f in [lo, hi] by Brent's method (R. P. Brent, Algorithms for
    Minimization without Derivatives, 1973), given f_lo = f(lo) and
    f_hi = f(hi) of opposite signs.

    A step-for-step port of SciPy's brentq.c: the same interpolation,
    extrapolation and bisection tests, so the same iterates and the same
    root.  Converged when the bracket half-width is below
    (xtol + rtol*|x|)/2.
    """
    x_pre, x_cur, f_pre, f_cur = lo, hi, f_lo, f_hi
    if f_pre == 0.0:
        return x_pre
    if f_cur == 0.0:
        return x_cur
    x_blk = f_blk = s_pre = s_cur = 0.0
    for _ in range(_BRENT_ITERATIONS):
        if f_pre != 0.0 and f_cur != 0.0 and (f_pre < 0.0) != (f_cur < 0.0):
            x_blk, f_blk = x_pre, f_pre
            s_pre = s_cur = x_cur - x_pre
        if abs(f_blk) < abs(f_cur):
            x_pre, x_cur, x_blk = x_cur, x_blk, x_cur
            f_pre, f_cur, f_blk = f_cur, f_blk, f_cur

        delta = (xtol + rtol * abs(x_cur)) / 2
        s_bis = (x_blk - x_cur) / 2
        if f_cur == 0.0 or abs(s_bis) < delta:
            return x_cur

        if abs(s_pre) > delta and abs(f_cur) < abs(f_pre):
            if x_pre == x_blk:
                # interpolate
                s_try = -f_cur * (x_cur - x_pre) / (f_cur - f_pre)
            else:
                # extrapolate
                d_pre = (f_pre - f_cur) / (x_pre - x_cur)
                d_blk = (f_blk - f_cur) / (x_blk - x_cur)
                s_try = (-f_cur * (f_blk * d_blk - f_pre * d_pre)
                         / (d_blk * d_pre * (f_blk - f_pre)))
            if 2 * abs(s_try) < min(abs(s_pre), 3 * abs(s_bis) - delta):
                s_pre, s_cur = s_cur, s_try      # good short step
            else:
                s_pre = s_cur = s_bis            # bisect
        else:
            s_pre = s_cur = s_bis                # bisect

        x_pre, f_pre = x_cur, f_cur
        if abs(s_cur) > delta:
            x_cur += s_cur
        else:
            x_cur += delta if s_bis > 0 else -delta
        f_cur = f(x_cur)
    raise NoEigenvalueError(
        f"root finder did not converge in {_BRENT_ITERATIONS} iterations "
        f"(last E={x_cur!r})")


def _sign(v: float) -> int:
    return (v > 0.0) - (v < 0.0)


def solve_groundstate_numeric(potential: Potential, grid: Grid) -> GroundState:
    """Shooting solver for the even, nodeless quartic ground state.

    S and S' are integrated directly (Riccati form of the Schroedinger
    equation), so s_prime is the analytically propagated log-derivative,
    not a finite difference of s.  Energy is refined by root finding on the
    S' mismatch at the outer turning point, in default_bracket(g), until
    the bracket has shrunk to _E_TOL * max(1, E).  Raises ValueError on a
    grid of fewer than 5 nodes.
    """
    if not isinstance(potential, Quartic):
        raise TypeError("numeric ground-state solver supports the quartic "
                        "potential only")
    h, n, x_max = grid.h, grid.n_points, grid.x_max
    if n < 5:
        # the matching node i_match below is at most n - 5
        raise ValueError(f"the shooting solve needs at least 5 nodes, got "
                         f"{n}")
    g = potential.g
    lo, hi = default_bracket(g)

    # fixed matching node near the outer turning point of the bracket center
    e_mid = 0.5 * (lo + hi)
    if not math.isfinite(e_mid):
        raise NoEigenvalueError(
            f"--g {g}: {_WINDOW} = ({lo:.6g}, {hi:.6g}) overflows the "
            "shooting solve, whose center 0.5(lo + hi) is not finite; "
            f"{_IN_RANGE}")
    x_turn = math.sqrt(1.0 + math.sqrt(2.0 * abs(e_mid)) / g)
    i_match = min(max(int(round(x_turn / h)), 4), n - 5)

    def mismatch(e):
        blown, sp_out, sp_in = kernels.shoot(x_max, h, n, i_match, g, e,
                                             _wkb_start(g, e, x_max))
        return _BLOWN if blown else sp_out - sp_in

    f_lo, f_hi = mismatch(lo), mismatch(hi)
    if f_lo == _BLOWN and f_hi == _BLOWN:
        blew_up = (f"both bracket ends blew up: the shooting sweeps at "
                   f"E={lo:.6g} and E={hi:.6g} develop a node on {n} nodes "
                   f"(h={h:.3g})")
        if not VALIDATED_COUPLINGS[0] <= g <= VALIDATED_COUPLINGS[1]:
            # no grid helps a coupling the window was not made for
            raise NoEigenvalueError(f"--g {g}: {blew_up}; {_IN_RANGE}, "
                                    "so keep --g in that range")
        raise NoEigenvalueError(f"{blew_up}, so the grid is too coarse to "
                                "resolve the well; raise --points")
    if not (math.isfinite(f_lo) and math.isfinite(f_hi)) \
            or _sign(f_lo) == _sign(f_hi):
        raise NoEigenvalueError(
            f"--g {g}: {_WINDOW} = ({lo:.6g}, {hi:.6g}) holds no ground "
            "state at this coupling (no sign change of the shooting "
            f"mismatch: f(lo)={f_lo:.3g}, f(hi)={f_hi:.3g}); {_IN_RANGE}")
    e_star = _brent(mismatch, lo, hi, f_lo, f_hi,
                    xtol=_E_TOL * max(1.0, e_mid), rtol=8.9e-16)

    s, s_prime = zeros(n), zeros(n)
    if kernels.shoot(x_max, h, n, i_match, g, e_star,
                     _wkb_start(g, e_star, x_max), s, s_prime)[0]:
        raise WrongParityError(
            "converged wave function develops a node inside the domain; "
            "the bracket does not isolate the even ground state")
    return GroundState(grid=grid, s=s, s_prime=s_prime, e_gd=float(e_star),
                       potential=potential)


# ---------------------------------------------------------------------------
# serialization: the CSV profile, the run's S, S' artifact, plus a JSON
# sidecar with its energy, potential and grid

def _shape(column) -> tuple:
    """The shape of a buffer, else (len(column),)."""
    try:
        return memoryview(column).shape
    except TypeError:
        return (len(column),)


def write_csv(path, header: list[str], columns: list) -> None:
    """Write equal-length 1-D columns of reals under a header line, every
    value as %.17g, which reads back to the same float64.  Raises
    ValueError, naming the shapes, before the file is opened when a column
    is not 1-D or the lengths differ."""
    shapes = [_shape(c) for c in columns]
    if any(len(shape) != 1 for shape in shapes) or len(set(shapes)) > 1:
        raise ValueError(f"CSV columns must be 1-D and of one length, got "
                         f"shapes {shapes}")
    with open(path, "wb") as f:
        f.write((",".join(header) + "\n").encode())
        kernels.write_csv_rows(f, columns)


def save_groundstate(gs: GroundState, csv_path) -> None:
    """Write the profile to csv_path and its metadata to csv_path.json."""
    csv_path = str(csv_path)
    write_csv(csv_path, ["x", "S", "Sprime"],
              [gs.grid.nodes(), gs.s, gs.s_prime])
    meta = {
        "e_gd": gs.e_gd,
        "potential": gs.potential.to_dict(),
        "grid": gs.grid.to_dict(),
    }
    with open(csv_path + ".json", "w") as f:
        json.dump(meta, f, indent=2, sort_keys=True)
        f.write("\n")
