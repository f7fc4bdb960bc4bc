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


def cumulative_simpson(values, h: float) -> np.ndarray:
    """Running integral from index 0 to each node, as a new array.

    Even offsets: accumulated Simpson panel pairs.  Odd offsets: preceding
    even value plus the half-panel rule h/12 (5 y0 + 8 y1 - y2).
    """
    y = np.asarray(values, dtype=float)
    n = len(y)
    if n < 3 or n % 2 == 0:
        raise ValueError("need an odd number of nodes, at least 3")
    y0, y1, y2 = y[0:-2:2], y[1::2], y[2::2]
    out = np.empty(n)
    out[0] = 0.0
    out[2::2] = np.cumsum((4.0 * y1 + y0 + y2) * (h / 3.0))
    out[1::2] = ((5.0 * y0 + 8.0 * y1) - y2) * (h / 12.0) + out[0:-1:2]
    return out


def reverse_cumulative_simpson(values, h: float) -> np.ndarray:
    """Running integral from each node to the last node, as a reversed
    view of a new array."""
    return cumulative_simpson(np.asarray(values, dtype=float)[::-1], h)[::-1]
