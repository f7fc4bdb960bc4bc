"""Ground-state profiles S(x) = -ln psi_gd(x) on the half-line grid.

Two providers: the analytic hard-wall solution for the DeltaBox benchmark,
and a two-sided shooting solver for the quartic double well that integrates
the log-derivative Riccati equation S'' = S'^2 - 2(V - E) outward from the
origin and inward from a WKB tail, root-finding on the matching mismatch.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import NoEigenvalueError, WrongParityError
from .potential import DeltaBox, Potential, Quartic, potential_from_dict

#: mismatch value reported when a sweep blows up (wave-function node)
_BLOWN = 1e15

# exp() overflows just above 709; leave headroom for the product with I
OVERFLOW_EXPONENT = 700.0


@dataclass(frozen=True)
class Grid:
    """Uniform nodes x_i = i*h on [0, x_max] with an odd node count, so the
    composite Simpson rule applies without a remainder panel."""

    x_max: float
    n_points: int

    def __post_init__(self):
        if not self.x_max > 0:
            raise ValueError(f"x_max must be positive, got {self.x_max}")
        if not math.isfinite(self.x_max):
            raise ValueError(f"x_max must be finite, got {self.x_max}")
        if self.n_points < 3 or self.n_points % 2 == 0:
            raise ValueError(
                f"n_points must be odd and >= 3, got {self.n_points}")

    @property
    def h(self) -> float:
        return self.x_max / (self.n_points - 1)

    def nodes(self) -> np.ndarray:
        """x_i = i * h, with the last node set to x_max: the arithmetic of
        np.linspace(0, x_max, n_points), so the same bytes, without its
        generic overhead."""
        x = np.arange(self.n_points, dtype=float)
        x *= self.h
        x[-1] = self.x_max
        return x

    def index_of(self, x: float) -> int:
        """Index of the node at coordinate x; x must lie on a node."""
        i = int(round(x / self.h)) if math.isfinite(x) else -1
        if not 0 <= i < self.n_points or abs(x - i * self.h) > 1e-9 * self.x_max:
            raise ValueError(f"{x} is not a grid node")
        return i

    def to_dict(self):
        return {"x_max": self.x_max, "n_points": self.n_points}


@dataclass(frozen=True)
class GroundState:
    """Samples of S(x_i), S'(x_i) and the ground-state energy.

    The iteration is invariant under S -> S + c, so no gauge is stored:
    S(0) is s[0].  A hard wall (compact support ending on the last node)
    is S = S' = +inf on the last node, where the weight is exactly zero.

    Both weights of an iteration step (scaled_weight) are cached on the
    instance; dataclasses.replace gives a copy with a fresh cache.
    """

    grid: Grid
    s: np.ndarray
    s_prime: np.ndarray
    e_gd: float
    potential: Potential

    @functools.cached_property
    def scaled_weight(self) -> tuple[np.ndarray, float, np.ndarray]:
        """(w, u_ref, winv), the read-only weights of an iteration step:
        w = e^{-2S - u_ref} at the nodes, with u_ref = max(-2S) over the
        finite samples so every sample is representable, zero where -2S is
        not finite; and the outer weight winv = e^{2S + u_ref}.

        winv is 0 where 2S + u_ref is not finite (the hard wall) or exceeds
        OVERFLOW_EXPONENT.  Such nodes lie far in the tail, where I carries
        the matching e^{-2S} decay, and chihat at the anchor does not read
        them.  On the default grids 2(S - S_min) stays below 200."""
        u = -2.0 * self.s
        finite = np.isfinite(u)
        u_ref = float(u[finite].max())
        w = np.where(finite, np.exp(np.where(finite, u, 0.0) - u_ref), 0.0)
        exponent = 2.0 * self.s + u_ref
        winv = np.zeros(len(exponent))
        np.exp(exponent, out=winv, where=exponent <= OVERFLOW_EXPONENT)
        w.flags.writeable = winv.flags.writeable = False
        return w, u_ref, winv


def soluble_groundstate(delta: float, grid: Grid) -> GroundState:
    """Analytic DeltaBox ground state e^{-S} = sin p(1-x), p = pi - delta.

    The grid must end exactly on the wall x_max = 1; the wall node carries
    zero weight and is excluded from the support.
    """
    pot = DeltaBox(delta)
    if grid.x_max != 1.0:
        raise ValueError(
            f"DeltaBox support is [0, 1]; grid extends to {grid.x_max}")
    p = pot.p
    x = grid.nodes()
    arg = p * (1.0 - x)
    with np.errstate(divide="ignore"):
        s = -np.log(np.sin(arg))
        s_prime = p / np.tan(arg)
    s[-1] = np.inf
    s_prime[-1] = np.inf
    return GroundState(grid=grid, s=s, s_prime=s_prime, e_gd=0.5 * p * p,
                       potential=pot)


def default_bracket(g: float) -> tuple[float, float]:
    """Energy interval containing the even ground state and no other even
    level, validated for couplings g in [0.7, 12]."""
    return 0.4 * g, 1.6 * g


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
    """S' at x_max for the decaying WKB tail: k + k'/(2k)."""
    v = 0.5 * g * g * (x_max * x_max - 1.0) ** 2
    if v <= e:
        raise ValueError(
            f"x_max={x_max} is inside the classically allowed region")
    k = math.sqrt(2.0 * (v - e))
    v_prime = 2.0 * g * g * x_max * (x_max * x_max - 1.0)
    return k + v_prime / (2.0 * k * k)


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


def solve_groundstate_numeric(potential: Potential, grid: Grid) -> GroundState:
    """Shooting solver for the even, nodeless quartic ground state.

    S and S' are integrated directly (Riccati form of the Schroedinger
    equation), so s_prime is the analytically propagated log-derivative,
    not a finite difference of s.  Energy is refined by root finding on the
    S' mismatch at the outer turning point, in default_bracket(g), until
    the bracket has shrunk to _E_TOL * max(1, E).
    """
    if not isinstance(potential, Quartic):
        raise TypeError("numeric ground-state solver supports the quartic "
                        "potential only")
    g = potential.g
    lo, hi = default_bracket(g)
    sweep = kernels.riccati_sweep
    h = grid.h
    n = grid.n_points
    x_max = grid.x_max

    # fixed matching node near the outer turning point of the bracket center
    e_mid = 0.5 * (lo + hi)
    x_turn = math.sqrt(1.0 + math.sqrt(2.0 * abs(e_mid)) / g)
    i_match = min(max(int(round(x_turn / h)), 4), n - 5)

    def sweeps(e):
        s_out, sp_out, node_out = sweep(0.0, h, i_match, g, e, 0.0, 0.0)
        sp0 = _wkb_start(g, e, x_max)
        s_in, sp_in, node_in = sweep(x_max, -h, n - 1 - i_match, g, e,
                                     0.0, sp0)
        return s_out, sp_out, node_out, s_in, sp_in, node_in

    def mismatch(e):
        _, sp_out, node_out, _, sp_in, node_in = sweeps(e)
        if node_out >= 0 or node_in >= 0:
            return _BLOWN
        return sp_out[i_match] - sp_in[-1]

    f_lo, f_hi = mismatch(lo), mismatch(hi)
    if f_lo == _BLOWN and f_hi == _BLOWN:
        raise NoEigenvalueError(
            f"both bracket ends blew up: the shooting sweeps at E={lo:.6g} "
            f"and E={hi:.6g} develop a node on {n} nodes (h={h:.3g}), so "
            "the grid is too coarse to resolve the well; raise --points")
    if not (np.isfinite(f_lo) and np.isfinite(f_hi)) \
            or np.sign(f_lo) == np.sign(f_hi):
        raise NoEigenvalueError(
            f"--g {g}: the energy window (0.4g, 1.6g) = ({lo:.6g}, "
            f"{hi:.6g}) holds no ground state at this coupling (no sign "
            f"change of the shooting mismatch: f(lo)={f_lo:.3g}, "
            f"f(hi)={f_hi:.3g}); default_bracket is validated for g in "
            "[0.7, 12]")
    e_star = _brent(mismatch, lo, hi, f_lo, f_hi,
                    xtol=_E_TOL * max(1.0, e_mid), rtol=8.9e-16)

    s_out, sp_out, node_out, s_in, sp_in, node_in = sweeps(e_star)
    if node_out >= 0 or node_in >= 0:
        raise WrongParityError(
            "converged wave function develops a node inside the domain; "
            "the bracket does not isolate the even ground state")

    s = np.empty(n)
    s_prime = np.empty(n)
    s[:i_match + 1] = s_out
    s_prime[:i_match + 1] = sp_out
    s_in_rev = s_in[::-1]          # now ordered x_match .. x_max
    sp_in_rev = sp_in[::-1]
    s[i_match:] = s_in_rev + (s_out[i_match] - s_in_rev[0])
    s_prime[i_match + 1:] = sp_in_rev[1:]
    return GroundState(grid=grid, s=s, s_prime=s_prime, e_gd=float(e_star),
                       potential=potential)


# ---------------------------------------------------------------------------
# serialization: CSV profile plus a JSON sidecar

def write_csv(path, header: list[str], columns: list[np.ndarray]) -> None:
    """Write equal-length 1-D columns under a header line, every value as
    %.17g, which reads back to the same float64.  Raises ValueError, naming
    the shapes, before the file is opened when a column is not 1-D or the
    lengths differ."""
    shapes = [np.shape(c) for c in columns]
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


def load_groundstate(csv_path) -> GroundState:
    """Read what save_groundstate wrote to csv_path and csv_path.json."""
    csv_path = str(csv_path)
    sidecar_path = csv_path + ".json"
    with open(sidecar_path) as f:
        meta = json.load(f)
    fields = {}
    for key, build in (("e_gd", float), ("potential", potential_from_dict),
                       ("grid", lambda d: Grid(**d))):
        if key not in meta:
            raise ValueError(f"sidecar {sidecar_path} has no {key!r} key")
        try:
            fields[key] = build(meta[key])
        except (KeyError, TypeError, ValueError):
            raise ValueError(f"sidecar {sidecar_path} has a malformed "
                             f"{key!r} key: {meta[key]!r}") from None
    n = fields["grid"].n_points
    with open(csv_path) as f:
        header = f.readline().rstrip("\n").split(",")
        if header != ["x", "S", "Sprime"]:
            raise ValueError(f"unexpected ground-state CSV header {header}")
        data = np.loadtxt(f, delimiter=",", usecols=(1, 2), ndmin=2)
    if len(data) != n:
        raise ValueError(f"{csv_path} has {len(data)} rows; its sidecar grid "
                         f"has {n} nodes")
    return GroundState(s=data[:, 0].copy(), s_prime=data[:, 1].copy(),
                       **fields)
