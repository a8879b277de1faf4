"""Tests for repeater sizing and insertion."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.delay import repeater
from repro.delay.ottenbrayton import wire_delay
from repro.delay.repeater import min_stages_for_target, optimal_repeater_size
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
        stages = int(min_stages_for_target(rc, device, length, target, size=size))
        assert stages >= 1
        assert wire_delay(rc, device, size, stages, length) <= target
        if stages > 1:
            assert wire_delay(rc, device, size, stages - 1, length) > target

    def test_matches_incremental_scan(self, rc, device):
        """Closed form equals the paper's incremental insertion result.

        One array call covers the whole grid of lengths and targets;
        the reference adds one stage at a time, per wire, until the
        delay meets the target or stops improving.
        """
        size = 25.0
        lengths, targets = [], []
        for length in (1e-4, 5e-4, 2.5e-3, 6e-3):
            for target_scale in (0.5, 0.9, 1.0, 1.5, 3.0, 10.0):
                lengths.append(length)
                targets.append(
                    target_scale * wire_delay(rc, device, size, 2, length)
                )
        closed = min_stages_for_target(
            rc, device, np.array(lengths), np.array(targets), size=size
        )
        for length, target, stages in zip(lengths, targets, closed):
            incremental = -1
            prev = math.inf
            for eta in range(1, 200):
                delay = wire_delay(rc, device, size, eta, length)
                if delay <= target:
                    incremental = eta
                    break
                if delay >= prev:
                    break
                prev = delay
            assert stages == incremental
        assert (closed == -1).any() and (closed > 1).any()

    def test_infeasible_returns_none(self, rc, device):
        """No stage count meets the target: ``-1``."""
        assert min_stages_for_target(rc, device, 3e-3, 1e-15) == -1

    def test_zero_target_returns_none(self, rc, device):
        assert min_stages_for_target(rc, device, 1e-3, 0.0) == -1

    def test_max_stages_cap(self, rc, device):
        length = 5e-3
        target = wire_delay(rc, device, 30.0, 10, length)
        unlimited = min_stages_for_target(rc, device, length, target, size=30.0)
        assert unlimited > 2
        with pytest.raises(TypeError, match="max_stages"):
            min_stages_for_target(rc, device, length, target, size=30.0, max_stages=2)

    def test_loose_target_needs_one_stage(self, rc, device):
        assert min_stages_for_target(rc, device, 1e-4, 1.0) == 1

    def test_negative_length_rejected(self, rc, device):
        with pytest.raises(DelayModelError):
            min_stages_for_target(rc, device, -1.0, 1e-9)


class TestStageGuard:
    """The float guard after the closed form: verify its count, nudge a
    miss up once, and recheck.

    Both cases sit on a 2 mm wire whose continuous optimum is
    ``eta_c ~ 9.37`` stages at size 25 (``D(9) < D(10) < D(8)``), with
    a target one ulp below ``D(eta)``: the feasible interval then ends a
    hair past ``eta``, well inside the closed form's ``1e-12`` ceil
    slack, so the closed form answers ``eta`` and ``D(eta)`` misses.
    """

    LENGTH, SIZE = 2e-3, 25.0

    @pytest.fixture
    def delay_calls(self, monkeypatch):
        calls = []

        def spy(*args):
            calls.append(args)
            return wire_delay(*args)

        monkeypatch.setattr(repeater, "wire_delay", spy)
        return calls

    def _just_below(self, rc, device, eta):
        delay = wire_delay(rc, device, self.SIZE, eta, self.LENGTH)
        return np.nextafter(delay, -np.inf)

    def test_nudge_fixes_a_count_one_short(self, rc, device, delay_calls):
        """Falling side of the convex curve: one more stage meets."""
        target = self._just_below(rc, device, 3)
        stages = min_stages_for_target(
            rc, device, self.LENGTH, target, size=self.SIZE
        )
        assert stages == 4
        assert len(delay_calls) == 2  # the verify, then the recheck
        assert wire_delay(rc, device, self.SIZE, 4, self.LENGTH) <= target

    def test_failed_nudge_is_infeasible(self, rc, device, delay_calls):
        """At the curve's integer minimum no stage count meets: the
        nudge leaves the feasible interval, and the wire gets ``-1``."""
        target = self._just_below(rc, device, 9)
        stages = min_stages_for_target(
            rc, device, self.LENGTH, target, size=self.SIZE
        )
        assert stages == -1
        assert len(delay_calls) == 2
        delays = wire_delay(rc, device, self.SIZE, np.arange(1, 40), self.LENGTH)
        assert (delays > target).all()

    def test_mixed_array(self, rc, device):
        """Both outcomes and an untouched count in one array call."""
        targets = np.array(
            [
                self._just_below(rc, device, 3),
                self._just_below(rc, device, 9),
                wire_delay(rc, device, self.SIZE, 5, self.LENGTH),
            ]
        )
        stages = min_stages_for_target(
            rc, device, np.full(3, self.LENGTH), targets, size=self.SIZE
        )
        assert stages.tolist() == [4, -1, 5]


class TestMinStagesBatch:
    """One array call equals the calls on its elements."""

    def test_matches_scalar(self, rc, device):
        lengths = np.array([1e-4, 5e-4, 1e-3, 3e-3, 8e-3])
        targets = np.array([5e-11, 1e-10, 2e-10, 3e-10, 1e-12])
        batch = min_stages_for_target(rc, device, lengths, targets)
        assert batch.dtype == np.int64
        for i in range(lengths.size):
            scalar = min_stages_for_target(
                rc, device, float(lengths[i]), float(targets[i])
            )
            assert batch[i] == scalar
        assert (batch == -1).any()

    def test_shape_mismatch_rejected(self, rc, device):
        with pytest.raises(DelayModelError):
            min_stages_for_target(
                rc, device, np.array([1e-3]), np.array([1e-9, 2e-9])
            )

    @settings(deadline=None)
    @given(
        length=st.floats(min_value=1e-6, max_value=1e-2),
        target=st.floats(min_value=1e-13, max_value=1e-8),
    )
    def test_batch_scalar_agreement_property(self, length, target):
        """An array call and a scalar call agree, and the count is the
        least that meets the target."""
        rc = WireRC(resistance=2e5, capacitance=2.5e-10)
        device = DeviceParameters(
            output_resistance=2290.0,
            input_capacitance=0.6e-15,
            parasitic_capacitance=0.4e-15,
            min_inverter_area=2.5e-14,
        )
        batch = min_stages_for_target(
            rc, device, np.array([length]), np.array([target])
        )
        scalar = min_stages_for_target(rc, device, length, target)
        assert batch[0] == scalar
        if scalar > 0:
            size = optimal_repeater_size(rc, device)
            assert wire_delay(rc, device, size, scalar, length) <= target
            if scalar > 1:
                assert wire_delay(rc, device, size, scalar - 1, length) > target
