"""Pure-Python kernels, the fallback for the compiled ones in _kernels.c.

riccati_sweep integrates S'' = S'^2 - 2(V - E) for the quartic double well
with classic RK4 at fixed step.  excite_profile composes one iteration
step's profile from the NumPy quadrature in numerics.  The compiled
kernels must perform the same floating-point operations in the same
order, so that both give bit-identical output.
"""

from __future__ import annotations

import numpy as np

from .numerics import cumulative_simpson, reverse_cumulative_simpson

BLOWUP_LIMIT = 1e12


def riccati_sweep(x_start: float, h: float, n_steps: int, g: float,
                  e: float, s_init: float, sp_init: float):
    """Integrate (S, S') over n_steps of signed step h from x_start.

    Returns (s, sp, node_index): arrays of length n_steps + 1 and the step
    index at which |S'| exceeded the blow-up limit (the integrated
    log-derivative diverges where the wave function has a node), or -1 if
    the sweep stayed regular.  Raises ValueError for n_steps < 0.
    """
    if n_steps < 0:
        raise ValueError(f"n_steps must be >= 0, got {n_steps}")
    s = np.empty(n_steps + 1)
    sp = np.empty(n_steps + 1)
    s[0] = s_init
    sp[0] = sp_init
    gg = g * g
    a = s_init
    b = sp_init
    for i in range(n_steps):
        t = x_start + i * h

        t2 = t * t - 1.0
        k1a = b
        k1b = b * b - gg * t2 * t2 + 2.0 * e

        tm = t + 0.5 * h
        t2 = tm * tm - 1.0
        vm = gg * t2 * t2 - 2.0 * e
        b2 = b + 0.5 * h * k1b
        k2a = b2
        k2b = b2 * b2 - vm

        b3 = b + 0.5 * h * k2b
        k3a = b3
        k3b = b3 * b3 - vm

        tp = t + h
        t2 = tp * tp - 1.0
        b4 = b + h * k3b
        k4a = b4
        k4b = b4 * b4 - gg * t2 * t2 + 2.0 * e

        a += h / 6.0 * (k1a + 2.0 * k2a + 2.0 * k3a + k4a)
        b += h / 6.0 * (k1b + 2.0 * k2b + 2.0 * k3b + k4b)
        s[i + 1] = a
        sp[i + 1] = b
        if abs(b) > BLOWUP_LIMIT:
            # leave a deterministic tail; entries past a node are meaningless
            s[i + 2:] = np.nan
            sp[i + 2:] = np.nan
            return s, sp, i + 1
    return s, sp, -1


def check_profile_out(out, n: int, *others) -> None:
    """The contract of excite_profile's out on both backends: a float,
    C-contiguous, writable array of shape (n,) that shares no memory with
    the call's other arrays.  Raises ValueError otherwise."""
    if not (isinstance(out, np.ndarray) and out.shape == (n,)
            and out.dtype == float and out.flags.c_contiguous
            and out.flags.writeable):
        raise ValueError(f"out must be a C-contiguous, writable float "
                         f"array of shape ({n},)")
    for other in others:
        if np.shares_memory(out, other):
            raise ValueError("out must not share memory with the "
                             "profile's other arrays")


def excite_profile(h: float, w, winv, chi_prev, tail: float,
                   out: np.ndarray) -> np.ndarray:
    """chihat = 2 int_0^x winv(y) (I(y) + tail) dy with
    I(y) = int_y^{x_end} w chi_prev, both by cumulative_simpson.

    The caller's tail w * chi/(2S') at the last node is 0 at a hard wall,
    since w is 0 there; winv is 0 there too, so the outer integrand
    vanishes.  Writes chihat into out (see check_profile_out) and returns
    it; the quadrature's grid-sized temporaries are freed on return.
    """
    check_profile_out(out, len(chi_prev), w, winv, chi_prev)
    outer = winv * (reverse_cumulative_simpson(w * chi_prev, h) + tail)
    return np.multiply(cumulative_simpson(outer, h), 2.0, out=out)
