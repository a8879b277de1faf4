"""Tests for unit conversion helpers."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import units
from repro.errors import UnitsError


class TestLengthConversions:
    def test_um_to_metres(self):
        assert units.um(1.0) == pytest.approx(1e-6)

    def test_nm_to_metres(self):
        assert units.nm(130) == pytest.approx(130e-9)

    def test_mm_to_metres(self):
        assert units.mm(2.5) == pytest.approx(2.5e-3)

    def test_zero_is_allowed(self):
        assert units.um(0.0) == 0.0

    def test_negative_length_rejected(self):
        with pytest.raises(UnitsError):
            units.um(-1.0)

    def test_negative_nm_rejected(self):
        with pytest.raises(UnitsError):
            units.nm(-0.1)

    def test_to_um_roundtrip(self):
        assert units.to_um(units.um(0.23)) == pytest.approx(0.23)


class TestAreaConversions:
    def test_mm2(self):
        assert units.mm2(1.0) == pytest.approx(1e-6)

    def test_um2(self):
        assert units.um2(1.0) == pytest.approx(1e-12)

    def test_to_mm2_roundtrip(self):
        assert units.to_mm2(units.mm2(4.47)) == pytest.approx(4.47)

    def test_to_um2_roundtrip(self):
        assert units.to_um2(units.um2(0.42)) == pytest.approx(0.42)

    def test_negative_area_rejected(self):
        with pytest.raises(UnitsError):
            units.mm2(-1.0)


class TestTimeConversions:
    def test_ps(self):
        assert units.ps(1.0) == pytest.approx(1e-12)

    def test_ns(self):
        assert units.ns(2.0) == pytest.approx(2e-9)

    def test_to_ps_roundtrip(self):
        assert units.to_ps(units.ps(16.8)) == pytest.approx(16.8)

    def test_negative_time_rejected(self):
        with pytest.raises(UnitsError):
            units.ps(-5.0)


class TestFrequencyConversions:
    def test_mhz(self):
        assert units.mhz(500) == pytest.approx(5e8)

    def test_ghz(self):
        assert units.ghz(1.7) == pytest.approx(1.7e9)

    def test_negative_frequency_rejected(self):
        with pytest.raises(UnitsError):
            units.ghz(-1.0)


class TestCapacitanceConversions:
    def test_ff(self):
        assert units.ff(1.5) == pytest.approx(1.5e-15)

    def test_negative_capacitance_rejected(self):
        with pytest.raises(UnitsError):
            units.ff(-2.0)


@given(st.floats(min_value=0.0, max_value=1e9, allow_nan=False))
def test_length_roundtrip_property(value):
    assert units.to_um(units.um(value)) == pytest.approx(value, rel=1e-12)


@given(st.floats(min_value=0.0, max_value=1e6, allow_nan=False))
def test_time_roundtrip_property(value):
    assert units.to_ps(units.ns(value)) == pytest.approx(value * 1e3, rel=1e-12)


@given(st.floats(min_value=0.0, max_value=1e6, allow_nan=False))
def test_frequency_scaling_consistency(value):
    assert units.ghz(value) == pytest.approx(1000.0 * units.mhz(value), rel=1e-12)


def test_unit_constants_are_consistent():
    assert units.UM == pytest.approx(1000.0 * units.NM)
    assert units.MM == pytest.approx(1000.0 * units.UM)
    assert units.NS == pytest.approx(1000.0 * units.PS)
    assert units.GHZ == pytest.approx(1000.0 * units.MHZ)


def test_constants_module_values():
    from repro import constants

    assert constants.SWITCHING_A == pytest.approx(0.4)
    assert constants.SWITCHING_B == pytest.approx(0.7)
    assert constants.GATE_PITCH_FACTOR == pytest.approx(12.6)
    assert constants.K_SILICON_DIOXIDE == pytest.approx(3.9)
    assert 8.8e-12 < constants.EPS0 < 8.9e-12
    assert math.isfinite(constants.RESISTIVITY_COPPER)
    assert constants.RESISTIVITY_COPPER < constants.RESISTIVITY_ALUMINIUM
