import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from excite_iter.potential import DeltaBox, Quartic, eval_quartic


def test_quartic_zero_of_double_well():
    assert eval_quartic(3.0, 1.0) == 0.0


def test_quartic_barrier_top():
    assert eval_quartic(3.0, 0.0) == 4.5


def test_quartic_g8_direct():
    # (64/2) * 9 = 288
    assert eval_quartic(8.0, 2.0) == pytest.approx(288.0, rel=1e-15)


@given(st.floats(min_value=-10, max_value=10,
                 allow_nan=False, allow_infinity=False),
       st.floats(min_value=0.1, max_value=10))
def test_quartic_even_in_x(x, g):
    assert eval_quartic(g, x) == eval_quartic(g, -x)


def test_quartic_rejects_nonpositive_coupling():
    with pytest.raises(ValueError):
        Quartic(0.0)
    with pytest.raises(ValueError):
        Quartic(-1.0)


def test_soluble_params_small_delta():
    box = DeltaBox(0.1)
    p, lam = box.p, box.spike_strength
    assert p == pytest.approx(math.pi - 0.1, rel=1e-15)
    assert lam == pytest.approx(p / math.tan(0.1), rel=1e-15)
    assert lam == pytest.approx(30.3145, abs=5e-4)


def test_soluble_params_quarter_pi():
    box = DeltaBox(math.pi / 4)
    p, lam = box.p, box.spike_strength
    assert p == pytest.approx(3 * math.pi / 4, rel=1e-15)
    assert lam == pytest.approx(3 * math.pi / 4, rel=1e-12)


def test_soluble_params_diverges_at_small_delta():
    lam_small = DeltaBox(1e-8).spike_strength
    assert lam_small > 1e8


@pytest.mark.parametrize("delta", [-0.1, 0.0, math.pi / 2, 2.0])
def test_soluble_params_rejects_out_of_range(delta):
    with pytest.raises(ValueError):
        DeltaBox(delta)


@pytest.mark.parametrize("delta", np.geomspace(1e-3, 1.5, 25))
def test_matching_identity(delta):
    # -p cot p must equal (pi - delta) cot(delta)
    box = DeltaBox(delta)
    p, lam = box.p, box.spike_strength
    lhs = -p / math.tan(p)
    assert lhs == pytest.approx(lam, rel=1e-12)
    assert p > 0 and lam > 0


def test_delta_box_validation():
    with pytest.raises(ValueError):
        DeltaBox(0.0)
    assert DeltaBox(0.3).p == pytest.approx(math.pi - 0.3)
    assert DeltaBox(0.3).spike_strength > 0
