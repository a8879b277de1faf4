"""Tests for the Otten--Brayton delay model (paper Eqs. (2)-(3))."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.constants import SWITCHING_A, SWITCHING_B
from repro.delay.ottenbrayton import wire_delay
from repro.errors import DelayModelError
from repro.rc.models import WireRC
from repro.tech.device import DeviceParameters


def segment_delay(rc, device, size, segment_length):
    """Delay of one repeater-to-repeater segment (paper Eq. (2)), seconds.

    The oracle for :func:`wire_delay`: Eq. (3) is ``eta`` equal segments
    of Eq. (2).
    """
    r_tr = device.output_resistance / size
    c_load = size * device.input_capacitance
    c_par = size * device.parasitic_capacitance
    return (
        SWITCHING_B * r_tr * (c_load + c_par)
        + SWITCHING_B * (rc.capacitance * r_tr + rc.resistance * c_load) * segment_length
        + SWITCHING_A * rc.rc_product * (segment_length * segment_length)
    )


@pytest.fixture
def rc():
    return WireRC(resistance=3.2e5, capacitance=3.0e-10)


@pytest.fixture
def device():
    return DeviceParameters(
        output_resistance=2500.0,
        input_capacitance=0.6e-15,
        parasitic_capacitance=0.4e-15,
        min_inverter_area=2.5e-14,
    )


class TestSegmentDelay:
    def test_zero_length_leaves_intrinsic(self, rc, device):
        delay = segment_delay(rc, device, size=10.0, segment_length=0.0)
        assert delay == pytest.approx(0.7 * device.intrinsic_delay)

    def test_eq2_terms(self, rc, device):
        """Hand-evaluate Eq. (2) for one configuration."""
        size, length = 20.0, 1e-3
        r_tr = device.output_resistance / size
        c_load = size * device.input_capacitance
        c_par = size * device.parasitic_capacitance
        expected = (
            0.7 * r_tr * (c_load + c_par)
            + 0.7 * (rc.capacitance * r_tr + rc.resistance * c_load) * length
            + 0.4 * rc.rc_product * length ** 2
        )
        assert segment_delay(rc, device, size, length) == pytest.approx(expected)

    def test_quadratic_in_length(self, rc, device):
        """For long segments the l^2 term dominates."""
        d1 = segment_delay(rc, device, 10.0, 1e-3)
        d2 = segment_delay(rc, device, 10.0, 2e-3)
        assert d2 > 2 * d1


class TestWireDelay:
    def test_matches_eq3_decomposition(self, rc, device):
        """Eq. (3): intrinsic*eta + linear(l) + quadratic(l)/eta."""
        size, length, stages = 30.0, 2e-3, 4
        intrinsic = 0.7 * device.intrinsic_delay * stages
        linear = (
            0.7
            * (
                rc.capacitance * device.output_resistance / size
                + rc.resistance * device.input_capacitance * size
            )
            * length
        )
        quadratic = 0.4 * rc.rc_product * length ** 2 / stages
        assert wire_delay(rc, device, size, stages, length) == pytest.approx(
            intrinsic + linear + quadratic
        )

    def test_equals_stages_times_segment_delay(self, rc, device):
        """Eq. (3) is exactly eta equal segments of Eq. (2)."""
        size, length, stages = 12.0, 3e-3, 5
        total = wire_delay(rc, device, size, stages, length)
        per_segment = segment_delay(rc, device, size, length / stages)
        assert total == pytest.approx(stages * per_segment)

    def test_repeaters_help_long_wires(self, rc, device):
        length = 5e-3
        assert wire_delay(rc, device, 30.0, 5, length) < wire_delay(
            rc, device, 30.0, 1, length
        )

    def test_repeaters_hurt_short_wires(self, rc, device):
        length = 1e-6
        assert wire_delay(rc, device, 30.0, 5, length) > wire_delay(
            rc, device, 30.0, 1, length
        )

    def test_convex_in_stages(self, rc, device):
        """Delay decreases then increases around the optimum."""
        length = 5e-3
        delays = [wire_delay(rc, device, 30.0, s, length) for s in range(1, 40)]
        best = delays.index(min(delays))
        assert all(delays[i] >= delays[i + 1] - 1e-18 for i in range(best))
        assert all(delays[i] <= delays[i + 1] + 1e-18 for i in range(best, 38))

    def test_invalid_stage_count(self, rc, device):
        with pytest.raises(DelayModelError):
            wire_delay(rc, device, 1.0, 0, 1e-3)


@given(
    length=st.floats(min_value=1e-6, max_value=1e-2),
    stages=st.integers(min_value=1, max_value=50),
    size=st.floats(min_value=1.0, max_value=500.0),
)
def test_delay_positive_property(length, stages, size):
    rc = WireRC(resistance=1e5, capacitance=2e-10)
    device = DeviceParameters(
        output_resistance=3000.0,
        input_capacitance=1e-15,
        parasitic_capacitance=1e-15,
        min_inverter_area=4e-14,
    )
    assert wire_delay(rc, device, size, stages, length) > 0


@given(length=st.floats(min_value=1e-5, max_value=1e-2))
def test_delay_monotone_in_length_property(length):
    rc = WireRC(resistance=1e5, capacitance=2e-10)
    device = DeviceParameters(
        output_resistance=3000.0,
        input_capacitance=1e-15,
        parasitic_capacitance=1e-15,
        min_inverter_area=4e-14,
    )
    assert wire_delay(rc, device, 10.0, 3, 2 * length) > wire_delay(
        rc, device, 10.0, 3, length
    )
