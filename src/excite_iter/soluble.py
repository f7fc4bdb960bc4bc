"""Closed forms for the DeltaBox benchmark: exact eigenquantities and the
hand-derived first-iterate formulas used to validate the numeric engine."""

from __future__ import annotations

import math
from array import array

from .potential import DeltaBox


def exact_epsilon(delta: float) -> float:
    """Exact excitation energy (pi^2 - p^2)/2, as pi*delta - delta^2/2."""
    d = DeltaBox(delta).delta
    return math.pi * d - 0.5 * d * d


def exact_chi(delta: float, x):
    """chi(x) = sin(pi x) / sin(p (1-x)) on [0, 1], for a float x (a float
    back) or a sequence of them (an array('d') back).

    The wall value is the removable-singularity limit pi/p.
    """
    p = DeltaBox(delta).p
    xs = [x] if isinstance(x, (int, float)) else x
    for v in xs:
        if not 0.0 <= v <= 1.0:
            raise ValueError(f"x must lie in [0, 1], got {v}")
    denoms = [math.sin(p * (1.0 - v)) for v in xs]
    chi = array("d", [math.sin(math.pi * v) / d if d else math.pi / p
                      for v, d in zip(xs, denoms)])
    return chi[0] if xs is not x else chi


def chi1_closed_form(delta: float, x: float) -> float:
    """Bracketed profile of the first iterate from the linear trial:

        [4p sin(p)/(2 eps_1)] chi_1 e^{-S}
            = sin(px) - sin(p) [ (x/p) sin(p(1-x)) + x^2 cos(p(1-x)) ]
    """
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x must lie in [0, 1], got {x}")
    p = DeltaBox(delta).p
    sp = math.sin(p)
    return (math.sin(p * x)
            - sp * ((x / p) * math.sin(p * (1.0 - x))
                    + x * x * math.cos(p * (1.0 - x))))


def epsilon1_closed_form(delta: float) -> float:
    """First-iterate energy 2 p^2 / (1 - p cot p) at anchor x0 = 1."""
    p = DeltaBox(delta).p
    return 2.0 * p * p / (1.0 - p / math.tan(p))


def epsilon_series(delta: float, order_n: int) -> float:
    """Quartic-in-delta truncations of eps_n for n in {1, 2, 3}.

    Coefficients are fixed rational/pi expressions; this is a regression
    oracle, not a symbolic derivation.
    """
    d = DeltaBox(delta).delta
    pi = math.pi
    if order_n == 1:
        return (2.0 * pi * d - 4.0 * d ** 2
                + 2.0 * (1.0 / pi + pi / 3.0) * d ** 3 - 2.0 * d ** 4)
    if order_n == 2:
        return (pi * d + (1.0 / pi - pi / 3.0) * d ** 3
                + (1.0 / 3.0 - 2.0 / pi ** 2) * d ** 4)
    if order_n == 3:
        return (pi * d - 0.5 * d ** 2
                + (pi ** 2 - 6.0) / (12.0 * pi) * d ** 3
                - 15.0 / (8.0 * pi ** 2) * d ** 4)
    raise ValueError(f"series order must be 1, 2, or 3, got {order_n}")
