"""Wells with known spectra, for the tests and scripts/contraction_ratios.py.

The closed forms are GroundStates built from their S and S' with no
potential (potential=None), so only the iteration reads them.  The quartic
well has no closed form; dense_eigenvalues is its oracle.
"""

import numpy as np
from scipy.linalg import eigh_tridiagonal

from excite_iter.groundstate import Grid, GroundState


def harmonic(x_max, n_points):
    """GroundState of S = x^2/2: a soft wall with a nonzero Watson tail.
    eps = 1, eps_2 = 3 and chi = x."""
    grid = Grid(x_max, n_points)
    x = np.asarray(grid.nodes())
    return GroundState(grid=grid, s=0.5 * x * x, s_prime=x.copy(),
                       e_gd=0.5, potential=None)


def cosh_well(a, x_max, n_points):
    """GroundState of S = a cosh 2x - ln cosh x, 0 < a < 1: a double well
    with minima at cosh 2x = 1/a.  psi_0 = e^{-S} and psi_1 =
    e^{-a cosh 2x} sinh x are its lowest levels, E_0 = -2a - 1/2 and
    E_1 = 2a - 1/2, so eps = 4a and chi = psi_1/psi_0 = tanh x."""
    grid = Grid(x_max, n_points)
    x = np.asarray(grid.nodes())
    return GroundState(grid=grid, s=a * np.cosh(2.0 * x) - np.log(np.cosh(x)),
                       s_prime=2.0 * a * np.sinh(2.0 * x) - np.tanh(x),
                       e_gd=-2.0 * a - 0.5, potential=None)


def dense_eigenvalues(g, x_max, n_half, k=2):
    """Brute-force oracle: the k lowest levels of the quartic well by a
    full-line central-difference diagonalization on the mirrored grid
    (independent of the shooting path)."""
    n = 2 * n_half - 1
    x = np.linspace(-x_max, x_max, n)
    h = x[1] - x[0]
    v = 0.5 * g * g * (x * x - 1.0) ** 2
    return eigh_tridiagonal(1.0 / h ** 2 + v, -0.5 / h ** 2 * np.ones(n - 1),
                            select="i", select_range=(0, k - 1),
                            eigvals_only=True)


#: delta_n/eps above which a step's delta is clear of the rounding floor
SETTLED_FLOOR = 1e-11


def settled_ratio(report):
    """(n, delta_n/delta_{n-1}) at the last step n whose delta_n =
    |eps_n - eps_{n-1}| is above SETTLED_FLOOR * eps, where the ratio has
    come closest to the contraction rate eps/eps_2 and rounding has not
    yet set in; None when fewer than two deltas are above it."""
    deltas = report.delta_sequence        # delta_2, delta_3, ...
    last = max((i for i, d in enumerate(deltas)
                if d > SETTLED_FLOOR * abs(report.eps)), default=0)
    if last == 0:
        return None
    return last + 2, deltas[last] / deltas[last - 1]
