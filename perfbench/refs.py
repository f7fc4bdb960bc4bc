"""Independent references for the excitation energy, computed in set-up
and never timed. Neither imports the package under test.

- soluble: the closed form eps = pi*delta - delta^2/2 of the
  delta-spike-in-a-box;
- quartic: the gap E1 - E0 of a full-line sinc discrete variable
  representation (Colbert & Miller, J. Chem. Phys. 96, 1982 (1992)) of
  H = -1/2 d^2/dx^2 + (g^2/2)(x^2 - 1)^2, numpy only.

With 301 points on [-3, 3] the DVR gap agrees with the iteration to
1.6e-11 at g=3, 5e-10 at g=8 and 3.5e-9 at g=10 (16001 nodes). Beyond
g~10 the subtraction E1 - E0 of two O(g) eigenvalues loses the digits the
check needs, hence the g range of the workloads.
"""

from __future__ import annotations

import math

import numpy as np

DVR_POINTS = 301
DVR_EDGE = 3.0

#: largest accepted |eps - eps_ref| / eps_ref ("seven figures"). The
#: soluble bound leaves 2x room over the slowest case, delta=1 at anchor 1,
#: which stops after 8 iterations at 4.8e-7.
REL_TOL = {"soluble": 1e-6, "quartic": 1e-7}


def soluble_eps(delta):
    return math.pi * delta - 0.5 * delta * delta


def soluble_chi(delta, x):
    """Exact chi(x) = sin(pi x) / sin(p (1 - x)), p = pi - delta, with
    the wall limit pi/p; x is an array."""
    p = math.pi - delta
    den = np.sin(p * (1.0 - x))
    with np.errstate(divide="ignore", invalid="ignore"):
        chi = np.sin(math.pi * x) / den
    return np.where(den == 0.0, math.pi / p, chi)


def quartic_eps(g, n=DVR_POINTS, edge=DVR_EDGE):
    """E1 - E0 of the sinc-DVR Hamiltonian on n points over [-edge, edge]."""
    x = np.linspace(-edge, edge, n)
    dx = x[1] - x[0]
    d = np.subtract.outer(np.arange(n), np.arange(n))
    off = np.where(d == 0, 1, d).astype(float)
    kinetic = np.where(d == 0, math.pi ** 2 / 3.0, 2.0 / off ** 2)
    kinetic *= np.where(d % 2 == 0, 1.0, -1.0) / (2.0 * dx * dx)
    kinetic[np.diag_indices(n)] += 0.5 * g * g * (x * x - 1.0) ** 2
    e = np.linalg.eigvalsh(kinetic)
    return float(e[1] - e[0])


def reference_eps(case, param):
    return soluble_eps(param) if case == "soluble" else quartic_eps(param)


def rel_err(eps, ref):
    return abs(eps - ref) / abs(ref)
