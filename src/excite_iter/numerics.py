"""Quadrature and log-domain primitives.

The excitation iteration multiplies e^{2S(y)} (huge in the tail) by a tail
integral carrying at least e^{-2S(y)} decay.  Everything here keeps the two
factors in the log domain until a single final exponentiation, so the
product stays finite whenever the true value is.

Cumulative quadrature scheme (fixed; regression targets depend on it):
composite Simpson accumulated over panel pairs gives the running integral at
even offsets from the start; odd offsets add a single-panel trapezoid
correction on top of the preceding even offset.
"""

from __future__ import annotations

import numpy as np

from .errors import OverflowGuardError

# exp() overflows just above 709; leave headroom for the final product
OVERFLOW_EXPONENT = 700.0


def simpson_integral(values, h: float, a_index: int = 0,
                     b_index: int | None = None) -> float:
    """Composite Simpson integral of uniformly sampled values.

    The panel count b_index - a_index must be even (grids with an odd node
    count guarantee this for the full range).
    """
    values = np.asarray(values, dtype=float)
    if b_index is None:
        b_index = len(values) - 1
    if not 0 <= a_index < b_index <= len(values) - 1:
        raise IndexError(f"bad index range [{a_index}, {b_index}]")
    if (b_index - a_index) % 2 != 0:
        raise ValueError("panel count must be even for composite Simpson")
    y = values[a_index:b_index + 1]
    return float(h / 3.0 * (y[0] + y[-1] + 4.0 * y[1:-1:2].sum()
                            + 2.0 * y[2:-2:2].sum()))


def cumulative_simpson(values, h: float) -> np.ndarray:
    """Running integral from index 0 to each node.

    Even offsets: accumulated Simpson panel pairs.  Odd offsets: preceding
    even value plus a trapezoid over the last panel.
    """
    y = np.asarray(values, dtype=float)
    n = len(y)
    if n < 3 or n % 2 == 0:
        raise ValueError("need an odd number of nodes, at least 3")
    out = np.empty(n)
    out[0] = 0.0
    pairs = h / 3.0 * (y[0:-2:2] + 4.0 * y[1:-1:2] + y[2::2])
    out[2::2] = np.cumsum(pairs)
    out[1::2] = out[0:-1:2] + 0.5 * h * (y[0:-1:2] + y[1::2])
    return out


def reverse_cumulative_simpson(values, h: float) -> np.ndarray:
    """Running integral from each node to the last node."""
    y = np.asarray(values, dtype=float)
    return cumulative_simpson(y[::-1], h)[::-1]


def weighted_outer_profile(s: np.ndarray, log_inner: np.ndarray,
                           sign_inner: np.ndarray) -> np.ndarray:
    """sign_inner * e^{2S + log_inner} over a whole grid, the product
    e^{2S(y)} I(y) formed in the log domain.

    Nodes whose exponent is not finite (zero weight on a hard wall, or a
    zero inner integral with log_inner = -inf) contribute exactly zero.
    Raises OverflowGuardError, naming the first maximal node, if an
    exponent exceeds OVERFLOW_EXPONENT; for the supported potentials that
    indicates a logic bug upstream.
    """
    with np.errstate(invalid="ignore"):   # inf - inf at zero-weight nodes
        exponent = 2.0 * s + log_inner
    exponent[~np.isfinite(exponent)] = -np.inf
    i = int(exponent.argmax())
    if exponent[i] > OVERFLOW_EXPONENT:
        raise OverflowGuardError(
            f"outer integrand exponent {exponent[i]:.3g} at node {i} "
            f"exceeds {OVERFLOW_EXPONENT}")
    with np.errstate(over="raise"):
        np.exp(exponent, out=exponent)
    exponent *= sign_inner
    return exponent


def cubic_extrapolate_edge(values: np.ndarray) -> float:
    """One-sided cubic extrapolation of values[-1] from the four nodes
    before it (used for the hard-wall limit of the outer integrand)."""
    if len(values) < 5:
        raise ValueError("need at least five nodes to extrapolate")
    v = values
    return float(4.0 * v[-2] - 6.0 * v[-3] + 4.0 * v[-4] - v[-5])
