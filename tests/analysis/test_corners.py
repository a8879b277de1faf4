"""Tests for multi-corner rank evaluation."""

import pytest

from repro.analysis.corners import (
    STANDARD_CORNERS,
    Corner,
    apply_corner,
    rank_across_corners,
)
from repro.errors import RankComputationError

FAST = dict(bunch_size=2000, repeater_units=128)


@pytest.fixture(scope="module")
def report(small_baseline):
    return rank_across_corners(small_baseline, **FAST)


class TestCornerValidation:
    def test_standard_set_has_nominal(self):
        assert any(c.name == "nominal" for c in STANDARD_CORNERS)

    def test_invalid_scales_rejected(self):
        with pytest.raises(RankComputationError):
            Corner(name="bad", device_speed=0.0)
        with pytest.raises(RankComputationError):
            Corner(name="bad", clock_scale=-1.0)
        with pytest.raises(RankComputationError):
            Corner(name="bad", miller_factor=-0.5)


class TestApplyCorner:
    @pytest.mark.parametrize("baseline", ["small_baseline", "low_k_baseline"])
    def test_nominal_is_identity_rank(self, request, baseline):
        from repro.core.rank import compute_rank

        problem = request.getfixturevalue(baseline)
        nominal = apply_corner(problem, Corner(name="nominal"))
        assert compute_rank(nominal, **FAST).rank == compute_rank(
            problem, **FAST
        ).rank

    def test_device_speed_applied(self, small_baseline):
        variant = apply_corner(
            small_baseline, Corner(name="slow", device_speed=1.25)
        )
        assert variant.die.node.device.output_resistance == pytest.approx(
            1.25 * small_baseline.die.node.device.output_resistance
        )

    def test_clock_scale_applied(self, small_baseline):
        variant = apply_corner(
            small_baseline, Corner(name="fast-clock", clock_scale=1.1)
        )
        assert variant.clock_frequency == pytest.approx(
            1.1 * small_baseline.clock_frequency
        )

    def test_permittivity_clamped(self, small_baseline):
        variant = apply_corner(
            small_baseline,
            Corner(name="vacuum?", permittivity_scale=0.01),
        )
        assert "k=1" in variant.arch.name


class TestCornerReport:
    def test_all_corners_evaluated(self, report):
        assert len(report.results) == len(STANDARD_CORNERS)

    def test_worst_is_minimum(self, report):
        ranks = [result.rank for _, result in report.results]
        assert report.worst[1].rank == min(ranks)

    def test_nominal_found(self, report):
        corner, _ = report.nominal
        assert corner.name == "nominal"

    def test_guardband_non_negative(self, report):
        assert report.guardband >= 0.0

    def test_slow_device_degrades(self, report):
        by_name = {corner.name: result for corner, result in report.results}
        assert by_name["slow-device"].rank <= by_name["nominal"].rank

    def test_fast_device_helps(self, report):
        by_name = {corner.name: result for corner, result in report.results}
        assert by_name["fast-device"].rank >= by_name["nominal"].rank

    def test_empty_corners_rejected(self, small_baseline):
        with pytest.raises(RankComputationError):
            rank_across_corners(small_baseline, corners=())
