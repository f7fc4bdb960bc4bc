"""The running Simpson integrals of an iteration step in NumPy, written
from the formula: the tests' reference for the profile and the whole
step that kernels.excite_step gives, on every backend that backends()
gives.  The kernels' profile alone is their step anchored at node 0
(profile), where the profile is 0 and nothing is scaled; a ground
state's unnormalized profile is that step with its weights and Watson
tail."""

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


def profile(backend, h, w, winv, chi, tail, out=None):
    """The kernels' reference_profile(h, w, winv, chi, tail): backend's
    excite_step anchored at node 0, which must return chihat[0] = 0.0, into
    out when given, else into a new array('d'); returns out."""
    if out is None:
        out = zeros(len(chi))
    weights = (kernels.in_place(w), kernels.in_place(winv))
    assert backend.excite_step(h, weights, chi, tail, 0, out) == 0.0
    return out


def unnormalized_profile(gs, chi_prev, out=None):
    """chihat(x) = 2 int_0^x e^{2S(y)} I(y) dy with the weights and the
    Watson tail of gs, by profile on kernels.excite_step as it is bound
    when called: an iteration step before its split."""
    w, _, winv = gs.scaled_weight
    return profile(kernels, gs.grid.h, w, winv, chi_prev,
                   watson_tail(gs, chi_prev), out)


def reference_split(chihat, chi_prev, i0):
    """A step's split in NumPy: chihat times
    eps = chi_prev[i0] / chihat[i0], and chi_prev[i0] at node i0.
    Returns (chi, eps)."""
    chi_prev = np.asarray(chi_prev, dtype=np.float64)
    with np.errstate(all="ignore"):     # IEEE results, as the kernels'
        eps = chi_prev[i0] / chihat[i0]
        chi = chihat * eps
    chi[i0] = chi_prev[i0]
    return chi, float(eps)


def reference_step(gs, chi_prev, i0):
    """An iteration step in NumPy: reference_profile with the weights and
    the Watson tail of gs, split by reference_split.  Returns
    (chi, eps)."""
    w, _, winv = gs.scaled_weight
    chihat = reference_profile(gs.grid.h, w, winv, chi_prev,
                               watson_tail(gs, chi_prev))
    return reference_split(chihat, chi_prev, i0)
