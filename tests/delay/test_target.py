"""Tests for target-delay models."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.delay.target import LinearTargetModel, QuadraticTargetModel
from repro.errors import DelayModelError


class TestLinear:
    def test_paper_formula(self):
        """d_i = (l_i / l_max) / f_c."""
        model = LinearTargetModel(max_length=2.4e-3, clock_frequency=5e8)
        assert model.targets(2.4e-3) == pytest.approx(2e-9)
        assert model.targets(1.2e-3) == pytest.approx(1e-9)

    def test_longest_wire_gets_full_period(self):
        model = LinearTargetModel(max_length=1e-3, clock_frequency=1e9)
        assert model.targets(1e-3) == pytest.approx(1e-9)

    def test_zero_length_zero_target(self):
        model = LinearTargetModel(max_length=1e-3, clock_frequency=1e9)
        assert model.targets(0.0) == 0.0

    def test_vectorized_matches_scalar(self):
        model = LinearTargetModel(max_length=1e-3, clock_frequency=1e9)
        lengths = np.array([1e-4, 5e-4, 1e-3])
        batch = model.targets(lengths)
        assert batch.tolist() == [model.targets(float(l)) for l in lengths]

    def test_frequency_tightens_targets(self):
        slow = LinearTargetModel(max_length=1e-3, clock_frequency=5e8)
        fast = LinearTargetModel(max_length=1e-3, clock_frequency=1e9)
        assert fast.targets(5e-4) == pytest.approx(slow.targets(5e-4) / 2)

    def test_invalid_construction(self):
        with pytest.raises(DelayModelError):
            LinearTargetModel(max_length=0.0, clock_frequency=1e9)
        with pytest.raises(DelayModelError):
            LinearTargetModel(max_length=1e-3, clock_frequency=0.0)

    def test_negative_length_rejected(self):
        model = LinearTargetModel(max_length=1e-3, clock_frequency=1e9)
        with pytest.raises(DelayModelError):
            model.targets(-1.0)
        with pytest.raises(DelayModelError):
            model.targets(np.array([-1.0]))


class TestQuadratic:
    def test_section6_formula(self):
        """d_i = (l_i / l_max)^2 / f_c."""
        model = QuadraticTargetModel(max_length=2e-3, clock_frequency=5e8)
        assert model.targets(2e-3) == pytest.approx(2e-9)
        assert model.targets(1e-3) == pytest.approx(0.5e-9)

    def test_looser_than_linear_for_short_wires(self):
        linear = LinearTargetModel(max_length=1e-3, clock_frequency=1e9)
        quad = QuadraticTargetModel(max_length=1e-3, clock_frequency=1e9)
        assert quad.targets(1e-4) < linear.targets(1e-4)

    def test_equal_at_max_length(self):
        linear = LinearTargetModel(max_length=1e-3, clock_frequency=1e9)
        quad = QuadraticTargetModel(max_length=1e-3, clock_frequency=1e9)
        assert quad.targets(1e-3) == pytest.approx(linear.targets(1e-3))

    def test_vectorized_matches_scalar(self):
        model = QuadraticTargetModel(max_length=1e-3, clock_frequency=1e9)
        lengths = np.array([1e-4, 5e-4, 1e-3])
        batch = model.targets(lengths)
        assert batch.tolist() == [model.targets(float(l)) for l in lengths]

    def test_negative_length_rejected(self):
        model = QuadraticTargetModel(max_length=1e-3, clock_frequency=1e9)
        with pytest.raises(DelayModelError):
            model.targets(np.array([1.0, -1.0]))


@given(
    length=st.floats(min_value=0.0, max_value=1e-3),
    frequency=st.floats(min_value=1e8, max_value=1e10),
)
def test_targets_bounded_by_clock_period_property(length, frequency):
    for cls in (LinearTargetModel, QuadraticTargetModel):
        model = cls(max_length=1e-3, clock_frequency=frequency)
        assert 0.0 <= model.targets(length) <= 1.0 / frequency + 1e-18
