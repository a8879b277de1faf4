"""Tests for repeater sizing and insertion."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.delay.ottenbrayton import wire_delay
from repro.delay.repeater import (
    min_stages_for_target,
    min_stages_for_target_batch,
    optimal_repeater_size,
)
from repro.errors import DelayModelError
from repro.rc.models import WireRC
from repro.tech.device import DeviceParameters


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


class TestOptimalSize:
    def test_eq4(self, rc, device):
        expected = math.sqrt(
            rc.capacitance
            * device.output_resistance
            / (device.input_capacitance * rc.resistance)
        )
        assert optimal_repeater_size(rc, device) == pytest.approx(expected)

    def test_clamped_at_one(self, device):
        """Extreme RC cannot drive size below the minimum inverter."""
        rc = WireRC(resistance=1e12, capacitance=1e-18)
        assert optimal_repeater_size(rc, device) == 1.0

    def test_size_minimizes_linear_coefficient(self, rc, device):
        """Perturbing s away from s_opt increases the l-linear term."""
        s_opt = optimal_repeater_size(rc, device)

        def linear(s):
            return (
                rc.capacitance * device.output_resistance / s
                + rc.resistance * device.input_capacitance * s
            )

        assert linear(s_opt) <= linear(s_opt * 1.2)
        assert linear(s_opt) <= linear(s_opt / 1.2)


class TestMinStages:
    def test_minimality_and_feasibility(self, rc, device):
        length, size = 3e-3, 30.0
        target = 1.3 * wire_delay(rc, device, size, 3, length)
        stages = min_stages_for_target(rc, device, length, target, size=size)
        assert stages is not None
        assert wire_delay(rc, device, size, stages, length) <= target
        if stages > 1:
            assert wire_delay(rc, device, size, stages - 1, length) > target

    def test_matches_incremental_scan(self, rc, device):
        """Closed form equals the paper's incremental insertion result."""
        length, size = 2.5e-3, 25.0
        for target_scale in (0.9, 1.0, 1.5, 3.0, 10.0):
            best = wire_delay(
                rc,
                device,
                size,
                max(1, round(min_stages := 1)),
                length,
            )
            target = target_scale * wire_delay(rc, device, size, 2, length)
            closed = min_stages_for_target(rc, device, length, target, size=size)
            # incremental scan
            incremental = None
            prev = math.inf
            for eta in range(1, 200):
                delay = wire_delay(rc, device, size, eta, length)
                if delay <= target:
                    incremental = eta
                    break
                if delay >= prev:
                    break
                prev = delay
            assert closed == incremental

    def test_infeasible_returns_none(self, rc, device):
        assert min_stages_for_target(rc, device, 3e-3, 1e-15) is None

    def test_zero_target_returns_none(self, rc, device):
        assert min_stages_for_target(rc, device, 1e-3, 0.0) is None

    def test_max_stages_cap(self, rc, device):
        length = 5e-3
        target = wire_delay(rc, device, 30.0, 10, length)
        unlimited = min_stages_for_target(rc, device, length, target, size=30.0)
        assert unlimited is not None and unlimited > 2
        with pytest.raises(TypeError, match="max_stages"):
            min_stages_for_target(rc, device, length, target, size=30.0, max_stages=2)

    def test_loose_target_needs_one_stage(self, rc, device):
        assert min_stages_for_target(rc, device, 1e-4, 1.0) == 1

    def test_negative_length_rejected(self, rc, device):
        with pytest.raises(DelayModelError):
            min_stages_for_target(rc, device, -1.0, 1e-9)


class TestMinStagesBatch:
    def test_matches_scalar(self, rc, device):
        lengths = np.array([1e-4, 5e-4, 1e-3, 3e-3, 8e-3])
        targets = np.array([5e-11, 1e-10, 2e-10, 3e-10, 1e-12])
        batch = min_stages_for_target_batch(rc, device, lengths, targets)
        for i in range(lengths.size):
            scalar = min_stages_for_target(
                rc, device, float(lengths[i]), float(targets[i])
            )
            expected = -1 if scalar is None else scalar
            assert batch[i] == expected

    def test_shape_mismatch_rejected(self, rc, device):
        with pytest.raises(DelayModelError):
            min_stages_for_target_batch(
                rc, device, np.array([1e-3]), np.array([1e-9, 2e-9])
            )

    def test_respects_max_stages(self, rc, device):
        lengths = np.array([8e-3])
        target = np.array([wire_delay(rc, device, 30.0, 12, 8e-3)])
        unlimited = min_stages_for_target_batch(rc, device, lengths, target)
        assert unlimited[0] > 3
        with pytest.raises(TypeError, match="max_stages"):
            min_stages_for_target_batch(rc, device, lengths, target, max_stages=3)

    @settings(deadline=None)
    @given(
        length=st.floats(min_value=1e-6, max_value=1e-2),
        target=st.floats(min_value=1e-13, max_value=1e-8),
    )
    def test_batch_scalar_agreement_property(self, length, target):
        rc = WireRC(resistance=2e5, capacitance=2.5e-10)
        device = DeviceParameters(
            output_resistance=2290.0,
            input_capacitance=0.6e-15,
            parasitic_capacitance=0.4e-15,
            min_inverter_area=2.5e-14,
        )
        batch = min_stages_for_target_batch(
            rc, device, np.array([length]), np.array([target])
        )
        scalar = min_stages_for_target(rc, device, length, target)
        assert batch[0] == (-1 if scalar is None else scalar)
