"""Tests for the per-unit-length capacitance formula."""

from types import SimpleNamespace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import units
from repro.errors import ConfigurationError
from repro.rc.capacitance import FRINGE_FACTOR, total_capacitance_per_length
from repro.tech.materials import SIO2, Dielectric
from repro.tech.node import MetalRule


@pytest.fixture
def rule():
    """130 nm local-tier geometry."""
    return MetalRule(
        min_width=units.um(0.16),
        min_spacing=units.um(0.18),
        thickness=units.um(0.336),
    )


class TestParallelPlate:
    def test_ground_formula(self, rule):
        """At M = 0 only the two planes remain: plate area plus fringe."""
        ground = SIO2.permittivity * (rule.min_width / rule.ild_height + 0.3)
        assert FRINGE_FACTOR == 0.3
        assert total_capacitance_per_length(rule, SIO2, 0.0) == 2.0 * ground

    def test_coupling_formula(self, rule):
        """Both planes plus both Miller-scaled neighbours, in this order."""
        eps = SIO2.permittivity
        ground = eps * (rule.min_width / rule.ild_height + 0.3)
        coupling = eps * rule.thickness / rule.min_spacing
        assert total_capacitance_per_length(rule, SIO2, 2.0) == (
            2.0 * ground + 2.0 * 2.0 * coupling
        )

    def test_default_is_coupling_dominated(self, rule):
        """The calibration regime: coupling ~80% of total at M=2, which
        is what makes the paper's K-vs-M equivalence come out ~1:1."""
        total = total_capacitance_per_length(rule, SIO2, 2.0)
        ground_only = total_capacitance_per_length(rule, SIO2, 0.0)
        assert 0.7 < (total - ground_only) / total < 0.9


class TestTotalCapacitance:
    def test_positive(self, rule):
        assert total_capacitance_per_length(rule, SIO2, 0.0) > 0

    def test_coupling_decreases_with_spacing(self, rule):
        wide = MetalRule(
            min_width=rule.min_width,
            min_spacing=rule.min_spacing * 2,
            thickness=rule.thickness,
            ild_height=rule.ild_height,
        )
        assert total_capacitance_per_length(wide, SIO2, 2.0) < (
            total_capacitance_per_length(rule, SIO2, 2.0)
        )

    def test_total_monotone_in_miller(self, rule):
        t1 = total_capacitance_per_length(rule, SIO2, 1.0)
        t2 = total_capacitance_per_length(rule, SIO2, 2.0)
        assert t2 > t1

    def test_negative_miller_rejected(self, rule):
        with pytest.raises(ConfigurationError, match="Miller"):
            total_capacitance_per_length(rule, SIO2, -0.1)

    def test_non_positive_ild_height_rejected(self, rule):
        # MetalRule itself maps 0.0 to "same as thickness"; the formula
        # still refuses a rule that reaches it with no height.
        flat = SimpleNamespace(
            min_width=rule.min_width,
            min_spacing=rule.min_spacing,
            thickness=rule.thickness,
            ild_height=0.0,
        )
        with pytest.raises(ConfigurationError, match="ILD height"):
            total_capacitance_per_length(flat, SIO2, 2.0)

    def test_realistic_magnitude(self, rule):
        """Dense 130 nm wiring: effective c in the 100-400 pF/m decade."""
        total = total_capacitance_per_length(rule, SIO2, 2.0)
        assert 5e-11 < total < 5e-10


@given(
    miller=st.floats(min_value=0.0, max_value=3.0),
    k=st.floats(min_value=1.0, max_value=4.0),
)
def test_total_scales_linearly_with_permittivity_property(miller, k):
    rule = MetalRule(
        min_width=units.um(0.16),
        min_spacing=units.um(0.18),
        thickness=units.um(0.336),
    )
    base = Dielectric(name="unit", relative_permittivity=1.0)
    scaled = Dielectric(name="k", relative_permittivity=k)
    t_base = total_capacitance_per_length(rule, base, miller)
    t_scaled = total_capacitance_per_length(rule, scaled, miller)
    assert t_scaled == pytest.approx(k * t_base, rel=1e-9)
