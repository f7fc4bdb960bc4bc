"""Quadrature on uniform grids with an odd node count, plus the one-sided
edge extrapolation used at a hard wall.

These routines see plain finite samples.  The iteration's integrands span
hundreds of e-folds, and excite scales them before they arrive here: the
inner integrand by e^{-u_ref}, the outer by e^{2(S - S_min)}, which stays
below e^{OVERFLOW_EXPONENT} wherever it is not cut to zero.

Cumulative quadrature scheme (fixed; regression targets depend on it):
composite Simpson accumulated over panel pairs gives the running integral at
even offsets from the start; odd offsets add a single-panel trapezoid
correction on top of the preceding even offset.

In-place contract: the grid-sized routines take an optional ``out=`` and
then allocate nothing of grid size, so a caller that keeps its buffers
across calls pays no fresh pages per call.
cumulative_simpson forms the panel-pair sums in out[2::2] and accumulates
them there with np.cumsum(out=...); it then forms the odd offsets in
out[1::2] from the finished even ones.  These are the operations of the
allocating form in the same order, so both give the same bits; ``out`` must
not share memory with the input.  Without ``out`` the routines allocate it.

The compiled profile kernel (excite_profile in _kernels.c) computes both of
an iteration step's running integrals in single loops that mirror this
operation order: (4 y1 + y0 + y2) * (h/3) per panel pair, a sequential sum
that starts from the first pair as np.cumsum does, and odd offsets
(y0 + y1) * (0.5 h) + the even offset before them.  A change to the order
here must be made there too; the backend tests compare the two bit for bit.
"""

from __future__ import annotations

import numpy as np


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


def cumulative_simpson(values, h: float, out=None) -> np.ndarray:
    """Running integral from index 0 to each node, written into out (a new
    array when out is None) and returned.

    Even offsets: accumulated Simpson panel pairs.  Odd offsets: preceding
    even value plus a trapezoid over the last panel.  out may have any
    stride but must not share memory with values.
    """
    y = np.asarray(values, dtype=float)
    n = len(y)
    if n < 3 or n % 2 == 0:
        raise ValueError("need an odd number of nodes, at least 3")
    if out is None:
        out = np.empty(n)
    elif out.shape != y.shape or out.dtype != y.dtype:
        raise ValueError(f"out must be a float array of shape {y.shape}")
    elif np.shares_memory(out, y):
        raise ValueError("out must not share memory with values")
    out[0] = 0.0
    even = out[2::2]     # h/3 (y0 + 4 y1 + y2) per panel pair, summed
    np.multiply(y[1:-1:2], 4.0, out=even)
    even += y[0:-2:2]
    even += y[2::2]
    even *= h / 3.0
    np.cumsum(even, out=even)
    odd = out[1::2]      # preceding even value + trapezoid over one panel
    np.add(y[0:-1:2], y[1::2], out=odd)
    odd *= 0.5 * h
    odd += out[0:-1:2]
    return out


def reverse_cumulative_simpson(values, h: float, out=None) -> np.ndarray:
    """Running integral from each node to the last node, written into out
    (a new array when out is None) and returned."""
    y = np.asarray(values, dtype=float)
    if out is None:
        out = np.empty(len(y))
    cumulative_simpson(y[::-1], h, out=out[::-1])
    return out


def cubic_extrapolate_edge(values: np.ndarray) -> float:
    """One-sided cubic extrapolation of values[-1] from the four nodes
    before it (used for the hard-wall limit of the outer integrand)."""
    if len(values) < 5:
        raise ValueError("need at least five nodes to extrapolate")
    v = values
    return float(4.0 * v[-2] - 6.0 * v[-3] + 4.0 * v[-4] - v[-5])
