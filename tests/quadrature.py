"""The running Simpson integrals of an iteration step in NumPy, written
from the formula: the tests' reference for kernels.excite_profile, on
every backend that backends() gives, and of a whole step of the
iteration; and a ground state's unnormalized profile by the kernel, the
first half of a step's two-call path (excite_profile, then scale)."""

import numpy as np

from excite_iter import kernels
from excite_iter.kernels import zeros


def backends():
    """The kernels of every backend that imports."""
    found = [kernels.get_backend("python")]
    try:
        found.append(kernels.get_backend("cython"))
    except ImportError:
        pass
    return found


def reference_cumulative(y, h):
    """Running integral of y from index 0 to each node: panel pairs
    summed by np.cumsum at even offsets, the half-panel rule
    h/12 (5 y0 + 8 y1 - y2) added to the even offset before an odd one.
    The formula in textbook order; the kernels' operands come in another
    order, which moves no bit."""
    out = np.empty(len(y))
    out[0] = 0.0
    out[2::2] = np.cumsum(h / 3.0 * (y[0:-2:2] + 4.0 * y[1:-1:2] + y[2::2]))
    out[1::2] = (out[0:-1:2]
                 + (5.0 * y[0:-2:2] + 8.0 * y[1::2] - y[2::2]) * (h / 12.0))
    return out


def reference_profile(h, w, winv, chi, tail):
    """2 int_0^x winv (I + tail) with I = int_x^{x_end} w chi, as the
    kernel's two passes: reference_cumulative of the reversed w chi,
    reversed back, then of winv (I + tail)."""
    w, winv, chi = (np.asarray(a, dtype=np.float64) for a in (w, winv, chi))
    inner = reference_cumulative((w * chi)[::-1], h)[::-1]
    return reference_cumulative(winv * (inner + tail), h) * 2.0


def watson_tail(gs, chi_prev):
    """iterate_once's closure of the profile beyond x_max, the first-order
    Watson estimate chi/(2S') * w at the last node."""
    return gs.scaled_weight[0][-1] * chi_prev[-1] / (2.0 * gs.s_prime[-1])


def unnormalized_profile(gs, chi_prev, out=None):
    """chihat(x) = 2 int_0^x e^{2S(y)} I(y) dy with the weights and the
    Watson tail of gs, by kernels.excite_profile as it is bound when
    called, into out when given, else into a new array('d'): an
    iteration step before its split."""
    if out is None:
        out = zeros(gs.grid.n_points)
    w, _, winv = gs.scaled_weight
    return kernels.excite_profile(gs.grid.h, w, winv, chi_prev,
                                  watson_tail(gs, chi_prev), out)


def reference_step(gs, chi_prev, i0):
    """An iteration step in NumPy: reference_profile with the weights and
    the Watson tail of gs, times eps = chi_prev[i0] / chihat[i0], and
    chi_prev[i0] at node i0.  Returns (chi, eps)."""
    chi_prev = np.asarray(chi_prev, dtype=np.float64)
    w, _, winv = gs.scaled_weight
    chihat = reference_profile(gs.grid.h, w, winv, chi_prev,
                               watson_tail(gs, chi_prev))
    eps = chi_prev[i0] / chihat[i0]
    chi = chihat * eps
    chi[i0] = chi_prev[i0]
    return chi, float(eps)
