"""Tests for minimum-inverter device parameters."""

import pytest

from repro.errors import ConfigurationError
from repro.tech.device import DeviceParameters


@pytest.fixture
def device():
    return DeviceParameters(
        output_resistance=3000.0,
        input_capacitance=1.0e-15,
        parasitic_capacitance=1.0e-15,
        min_inverter_area=4.0e-14,
    )


class TestValidation:
    @pytest.mark.parametrize(
        "field",
        [
            "output_resistance",
            "input_capacitance",
            "parasitic_capacitance",
            "min_inverter_area",
        ],
    )
    def test_non_positive_rejected(self, field):
        values = dict(
            output_resistance=3000.0,
            input_capacitance=1e-15,
            parasitic_capacitance=1e-15,
            min_inverter_area=4e-14,
        )
        values[field] = 0.0
        with pytest.raises(ConfigurationError):
            DeviceParameters(**values)


class TestIntrinsicDelay:
    def test_value(self, device):
        assert device.intrinsic_delay == pytest.approx(3000.0 * 2.0e-15)

    def test_size_invariance(self, device):
        """r_o/s * (s*c_o + s*c_p) is independent of s — the physical
        reason short wires hit a delay wall no sizing can fix."""
        for size in (1.0, 10.0, 100.0):
            product = (device.output_resistance / size) * (
                size * device.input_capacitance
                + size * device.parasitic_capacitance
            )
            assert product == pytest.approx(device.intrinsic_delay)


class TestRepeaterScaling:
    def test_area_scales_linearly(self, device):
        assert device.repeater_area(50.0) == pytest.approx(50 * 4.0e-14)

    @pytest.mark.parametrize("method", ["repeater_area"])
    def test_non_positive_size_rejected(self, device, method):
        with pytest.raises(ConfigurationError):
            getattr(device, method)(0.0)
