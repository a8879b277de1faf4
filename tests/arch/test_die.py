"""Tests for the die area model (paper Eq. (6))."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.arch.die import DieModel
from repro.errors import ConfigurationError
from repro.tech.presets import NODE_130NM


@pytest.fixture
def die():
    return DieModel(node=NODE_130NM, gate_count=1_000_000, repeater_fraction=0.4)


class TestAreas:
    def test_gate_area(self, die):
        g = NODE_130NM.gate_pitch
        assert die.gate_area == pytest.approx(g * g * 1_000_000)

    def test_eq6_inflation(self, die):
        """A_d = gate_area / (1 - R) and A_R = R * A_d (Eq. (6))."""
        assert die.die_area == pytest.approx(die.gate_area / 0.6)
        assert die.repeater_area == pytest.approx(0.4 * die.die_area)

    def test_identity_ad_equals_ar_plus_gates(self, die):
        assert die.die_area == pytest.approx(die.repeater_area + die.gate_area)

    def test_zero_fraction(self):
        die = DieModel(node=NODE_130NM, gate_count=1000, repeater_fraction=0.0)
        assert die.die_area == pytest.approx(die.gate_area)
        assert die.repeater_area == 0.0

    def test_130nm_1m_die_in_expected_range(self, die):
        """~4.5 mm^2 for a 1M-gate 130 nm design at R=0.4."""
        assert 3e-6 < die.die_area < 6e-6


class TestGatePitch:
    def test_adjusted_pitch_covers_die(self, die):
        pitch = die.adjusted_gate_pitch
        assert pitch * pitch * die.gate_count == pytest.approx(die.die_area)

    def test_adjusted_exceeds_nominal(self, die):
        assert die.adjusted_gate_pitch > NODE_130NM.gate_pitch

    def test_wire_length_conversion(self, die):
        assert die.wire_length(10.0) == pytest.approx(10 * die.adjusted_gate_pitch)
        # Arrays convert elementwise, as the table build asks for them.
        lengths = die.wire_length(np.array([1.0, 10.0]))
        assert lengths.tolist() == [
            1.0 * die.adjusted_gate_pitch,
            10.0 * die.adjusted_gate_pitch,
        ]

    def test_wire_length_rejects_negative(self, die):
        with pytest.raises(ConfigurationError):
            die.wire_length(-1.0)
        with pytest.raises(ConfigurationError):
            die.wire_length(np.array([1.0, -1.0]))


class TestValidation:
    def test_zero_gates_rejected(self):
        with pytest.raises(ConfigurationError):
            DieModel(node=NODE_130NM, gate_count=0, repeater_fraction=0.1)

    def test_fraction_one_rejected(self):
        with pytest.raises(ConfigurationError):
            DieModel(node=NODE_130NM, gate_count=100, repeater_fraction=1.0)

    def test_negative_fraction_rejected(self):
        with pytest.raises(ConfigurationError):
            DieModel(node=NODE_130NM, gate_count=100, repeater_fraction=-0.1)


class TestWithRepeaterFraction:
    def test_returns_new_model(self, die):
        bigger = die.with_repeater_fraction(0.5)
        assert bigger.repeater_fraction == pytest.approx(0.5)
        assert die.repeater_fraction == pytest.approx(0.4)

    def test_more_budget_means_bigger_die(self, die):
        assert die.with_repeater_fraction(0.5).die_area > die.die_area

    @given(fraction=st.floats(min_value=0.0, max_value=0.9))
    def test_eq6_consistency_property(self, fraction):
        die = DieModel(
            node=NODE_130NM, gate_count=10_000, repeater_fraction=fraction
        )
        assert die.die_area == pytest.approx(die.repeater_area + die.gate_area)
        assert die.repeater_area == pytest.approx(fraction * die.die_area)
