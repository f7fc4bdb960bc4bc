"""Quadrature on uniform grids with an odd node count.

These routines see plain finite samples.  The iteration's integrands span
hundreds of e-folds, and GroundState.scaled_weight scales them first: the
inner integrand by e^{-u_ref}, the outer by e^{2(S - S_min)}, which stays
below e^{OVERFLOW_EXPONENT} wherever it is not cut to zero.

Cumulative quadrature scheme: composite Simpson accumulated over panel
pairs gives the running integral at even offsets from the start; an odd
offset adds to the even offset before it the half-panel rule
h/12 (5 y0 + 8 y1 - y2) over the first panel of the next pair (the rule of
SciPy's cumulative_simpson on equal intervals).  Both are fourth order, so
the running integral at every node is accurate to O(h^4).

In-place contract: the grid-sized routines take an optional ``out=`` and
then allocate nothing of grid size, so a caller that keeps its buffers
across calls pays no fresh pages per call.
cumulative_simpson forms 8 y1 in out[1::2] and 5 y0 in out[2::2], adds the
second to the first and finishes the half panels as
((5 y0 + 8 y1) - y2) * (h/12); it then forms the panel-pair sums in
out[2::2], accumulates them there with np.cumsum(out=...) and adds to each
odd offset the even one before it.  ``out`` must not share memory with the
input.  Without ``out`` the routines allocate it.

The compiled profile kernel (excite_profile in _kernels.c) computes both of
an iteration step's running integrals in single loops that mirror this
operation order: (4 y1 + y0 + y2) * (h/3) per panel pair, a sequential sum
that starts from the first pair as np.cumsum does, and odd offsets
((5 y0 + 8 y1) - y2) * (h/12) + the even offset before them.  A change to
the order here must be made there too; the backend tests compare the two
bit for bit.
"""

from __future__ import annotations

import numpy as np


def simpson_integral(values, h: float) -> float:
    """Composite Simpson integral of uniformly sampled values over all of
    them; the panel count must be even (an odd node count)."""
    y = np.asarray(values, dtype=float)
    if len(y) < 3 or len(y) % 2 == 0:
        raise ValueError("composite Simpson needs an even panel count, "
                         "at least 2")
    return float(h / 3.0 * (y[0] + y[-1] + 4.0 * y[1:-1:2].sum()
                            + 2.0 * y[2:-2:2].sum()))


def cumulative_simpson(values, h: float, out=None) -> np.ndarray:
    """Running integral from index 0 to each node, written into out (a new
    array when out is None) and returned.

    Even offsets: accumulated Simpson panel pairs.  Odd offsets: preceding
    even value plus the half-panel rule h/12 (5 y0 + 8 y1 - y2).  out may
    have any stride but must not share memory with values.
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
    odd = out[1::2]      # h/12 (5 y0 + 8 y1 - y2) over one panel
    even = out[2::2]
    np.multiply(y[1::2], 8.0, out=odd)
    np.multiply(y[0:-2:2], 5.0, out=even)
    odd += even
    odd -= y[2::2]
    odd *= h / 12.0
    np.multiply(y[1:-1:2], 4.0, out=even)    # h/3 (y0 + 4 y1 + y2) per pair
    even += y[0:-2:2]
    even += y[2::2]
    even *= h / 3.0
    np.cumsum(even, out=even)
    odd += out[0:-1:2]   # plus the even value before it
    return out


def reverse_cumulative_simpson(values, h: float, out=None) -> np.ndarray:
    """Running integral from each node to the last node, written into out
    (a new array when out is None) and returned."""
    y = np.asarray(values, dtype=float)
    if out is None:
        out = np.empty(len(y))
    cumulative_simpson(y[::-1], h, out=out[::-1])
    return out
