"""Symmetric 1D potential families: the quartic double well and the
delta-spike-in-a-box soluble benchmark."""

from __future__ import annotations

import math


class Quartic:
    """Double-well potential V(x) = (g^2/2)(x^2 - 1)^2 with coupling g > 0."""

    __slots__ = ("g",)

    def __init__(self, g: float):
        if not g > 0:
            raise ValueError(f"coupling g must be positive, got {g}")
        if not math.isfinite(g):
            raise ValueError(f"coupling g must be finite, got {g}")
        self.g = g

    def to_dict(self):
        return {"variant": "quartic", "g": self.g}


class DeltaBox:
    """Infinite square well on [-1, 1] with a delta spike at the origin.

    Parameterized by delta in (0, pi/2); the spike strength is
    lambda = (pi - delta) * cot(delta), positive on that range.  The spike
    is never evaluated pointwise; it enters only through the transcendental
    matching condition behind the analytic ground state.
    """

    __slots__ = ("delta",)

    def __init__(self, delta: float):
        if not 0.0 < delta < math.pi / 2:
            raise ValueError(f"delta must lie in (0, pi/2), got {delta}")
        self.delta = delta

    @property
    def p(self) -> float:
        return math.pi - self.delta

    @property
    def spike_strength(self) -> float:
        return self.p / math.tan(self.delta)

    def to_dict(self):
        return {"variant": "delta_box", "delta": self.delta}


Potential = Quartic | DeltaBox


def eval_quartic(g: float, x):
    """V(x) = (g^2/2)(x^2 - 1)^2; even in x. Accepts scalars or arrays."""
    return 0.5 * g * g * (x * x - 1.0) ** 2

