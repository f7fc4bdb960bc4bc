"""Oracles for the quartic well with no cancellation, by Sturm bisection.

ground_energy gives E_0 from the 3-point finite-difference Hamiltonian,
and shares no code with the shooting solve.  gap_energies gives eps =
E_1 - E_0, eps_2 = E_3 - E_0, ... from a ground state's S: in the
ground-state gauge they are the squared singular values of a bidiagonal,
so no E_1 - E_0 is formed and eps keeps its digits however small it is.
Both discretizations are O(h^2), and richardson combines two grids.
Pure Python: a Sturm count is one pass over the matrix, and bisection to
the last bit takes about 60 of them.

    PYTHONPATH=src python scripts/oracle_agreement.py

prints the table of these oracles against the program.
"""

import math

#: a pivot that comes out exactly 0 is taken as this, as in LAPACK's dstebz
_TINY_PIVOT = -1e-300


def _bisect(count, k, lo, hi):
    """The shift at which count(shift) steps past k, to the last bit:
    bisection on count(lo) <= k < count(hi), 0 <= lo < hi.  The bracket is
    split at its geometric mean while it spans more than a factor of 2, so
    a value of 1e-66 takes as few steps as one of 1."""
    while True:
        if lo == 0.0:
            mid = hi * 2.0 ** -64
        elif hi > 2.0 * lo:
            mid = math.sqrt(lo) * math.sqrt(hi)
        else:
            mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return hi
        if count(mid) <= k:
            lo = mid
        else:
            hi = mid


def _first_above(count, k):
    """A power of 2 above which count exceeds k."""
    hi = 1.0
    while count(hi) <= k:
        hi *= 2.0
    return hi


def ground_energy(g, x_max, n_points):
    """Lowest level of the 3-point finite-difference Hamiltonian
    -(1/2) d^2/dx^2 + (g^2/2)(x^2 - 1)^2 on the nodes x_i = i h of
    [0, x_max], with a mirror node at -h (psi even) and psi = 0 at x_max.

    Its LDL^T pivots are q_i = (1 + t_i) / (2 h^2) (q_0 = (1 + t_0) / h^2)
    with t_0 = h^2 (V_0 - E) and t_i = t_{i-1} / (1 + t_{i-1})
    + 2 h^2 (V_i - E).  The count of negative pivots, the levels below E
    (Sylvester), is read off t = O(h).  The pivots themselves are
    1/(2 h^2) plus that O(1/h) part, and rounding them leaves E an error
    of ~1e-16/h^2: 5.8e-10 relative at g = 0.7 on 8001/4001 nodes,
    against 2.2e-13 by t.
    """
    h2 = (x_max / (n_points - 1)) ** 2
    two_h2_v = [h2 * g * g * (i * i * h2 - 1.0) ** 2
                for i in range(n_points - 1)]

    def count(e):
        shift = 2.0 * h2 * e
        t = 0.5 * (two_h2_v[0] - shift)
        below = 0
        for c in two_h2_v[1:]:
            pivot = 1.0 + t or _TINY_PIVOT
            below += pivot < 0.0
            t = t / pivot + (c - shift)
        return below + (1.0 + t < 0.0)

    return _bisect(count, 0, 0.0, _first_above(count, 0))


def gap_energies(s, s_prime, h, k=1):
    """The k lowest odd excitation energies [eps, eps_2, ...] of the
    ground state whose S and S' are sampled as s, s_prime on the nodes
    0, h, 2h, ...

    chi = psi/psi_0 has the energy (1/2) sum_k w_{k-1/2}
    (chi_k - chi_{k-1})^2 / h and the norm sum_k w_k chi_k^2 h, w =
    e^{-2S}, with chi_0 = 0 (odd) and nothing beyond the last finite
    sample M.  For y_k = chi_k sqrt(w_k h) that is |G y|^2 / |y|^2, G the
    lower bidiagonal with d_k = e^{S_k - S_{k-1/2}} / (sqrt(2) h) and
    e_k = -e^{S_{k-1} - S_{k-1/2}} / (sqrt(2) h), S_{k-1/2} from the
    cubic Hermite of S and S'.  Every entry is O(1/h).  The singular
    values of G are the positive eigenvalues of the zero-diagonal
    Golub-Kahan tridiagonal with off-diagonal d_1, e_2, d_2, ..., e_M,
    d_M, and the Sturm count of that matrix has them to high relative
    accuracy however small they are (J. Demmel and W. Kahan, SIAM J. Sci.
    Stat. Comput. 11, 873 (1990)).
    """
    m = max(i for i, v in enumerate(s) if math.isfinite(v))
    off2 = []
    for i in range(1, m + 1):
        s_mid = (0.5 * (s[i - 1] + s[i])
                 + 0.125 * h * (s_prime[i - 1] - s_prime[i]))
        if i > 1:
            off2.append(math.exp(2.0 * (s[i - 1] - s_mid)) / (2.0 * h * h))
        off2.append(math.exp(2.0 * (s[i] - s_mid)) / (2.0 * h * h))

    def count(sigma):
        # singular values below sigma: the tridiagonal's eigenvalues are
        # -sigma_j and sigma_j, so M of its pivots are negative besides
        q = -sigma
        below = 1
        for b2 in off2:
            q = -sigma - b2 / q or _TINY_PIVOT
            below += q < 0.0
        return below - m

    hi = _first_above(count, k - 1)
    sigmas = [0.0]
    for j in range(k):
        sigmas.append(_bisect(count, j, sigmas[-1], hi))
    return [sigma * sigma for sigma in sigmas[1:]]


def richardson(fine, coarse):
    """The h -> 0 limit of an O(h^2) value from a grid and its half grid."""
    return fine + (fine - coarse) / 3.0


def groundstate_gaps(gs, k=1):
    """gap_energies of a GroundState, Richardson over its nodes and every
    other one of them."""
    h = gs.grid.h
    fine = gap_energies(gs.s, gs.s_prime, h, k)
    coarse = gap_energies(gs.s[::2], gs.s_prime[::2], 2.0 * h, k)
    return [richardson(f, c) for f, c in zip(fine, coarse)]
