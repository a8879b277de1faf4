"""Tests for MetalRule, ViaRule and TechnologyNode."""

import pytest

from repro import units
from repro.errors import ConfigurationError
from repro.tech.device import DeviceParameters
from repro.tech.materials import COPPER, SIO2
from repro.tech.node import MetalRule, TechnologyNode, ViaRule


@pytest.fixture
def rule():
    return MetalRule(
        min_width=units.um(0.2),
        min_spacing=units.um(0.21),
        thickness=units.um(0.34),
    )


class TestMetalRule:
    def test_pitch(self, rule):
        assert rule.pitch == pytest.approx(units.um(0.41))

    def test_ild_defaults_to_thickness(self, rule):
        assert rule.ild_height == pytest.approx(rule.thickness)

    def test_explicit_ild_height(self):
        rule = MetalRule(
            min_width=units.um(0.2),
            min_spacing=units.um(0.2),
            thickness=units.um(0.3),
            ild_height=units.um(0.5),
        )
        assert rule.ild_height == pytest.approx(units.um(0.5))

    @pytest.mark.parametrize("field", ["min_width", "min_spacing", "thickness"])
    def test_non_positive_rejected(self, field):
        values = dict(
            min_width=units.um(0.2),
            min_spacing=units.um(0.2),
            thickness=units.um(0.3),
        )
        values[field] = 0.0
        with pytest.raises(ConfigurationError):
            MetalRule(**values)

    def test_negative_ild_rejected(self):
        with pytest.raises(ConfigurationError):
            MetalRule(
                min_width=units.um(0.2),
                min_spacing=units.um(0.2),
                thickness=units.um(0.3),
                ild_height=-1.0,
            )

    def test_scaled_uniform(self, rule):
        scaled = rule.scaled(0.5)
        assert scaled.min_width == pytest.approx(rule.min_width * 0.5)
        assert scaled.min_spacing == pytest.approx(rule.min_spacing * 0.5)
        assert scaled.thickness == pytest.approx(rule.thickness * 0.5)
        assert scaled.ild_height == pytest.approx(rule.ild_height * 0.5)

    def test_scaled_rejects_non_positive(self, rule):
        with pytest.raises(ConfigurationError):
            rule.scaled(0.0)


class TestViaRule:
    def test_blocked_area_without_enclosure(self):
        via = ViaRule(min_width=units.um(0.2))
        assert via.blocked_area == pytest.approx(units.um2(0.04))

    def test_blocked_area_with_enclosure(self):
        via = ViaRule(min_width=units.um(0.2), enclosure=units.um(0.05))
        assert via.blocked_area == pytest.approx(units.um2(0.09))

    def test_non_positive_width_rejected(self):
        with pytest.raises(ConfigurationError):
            ViaRule(min_width=0.0)

    def test_negative_enclosure_rejected(self):
        with pytest.raises(ConfigurationError):
            ViaRule(min_width=units.um(0.2), enclosure=-1e-9)


class TestTechnologyNode:
    def _make(self, **overrides):
        rule = MetalRule(
            min_width=units.um(0.2),
            min_spacing=units.um(0.2),
            thickness=units.um(0.3),
        )
        via = ViaRule(min_width=units.um(0.2))
        values = dict(
            name="test",
            feature_size=units.nm(130),
            metal_rules={"local": rule, "semi_global": rule, "global": rule},
            via_rules={"local": via, "semi_global": via, "global": via},
            device=DeviceParameters(
                output_resistance=3000.0,
                input_capacitance=1e-15,
                parasitic_capacitance=1e-15,
                min_inverter_area=4e-14,
            ),
            conductor=COPPER,
            dielectric=SIO2,
        )
        values.update(overrides)
        return TechnologyNode(**values)

    def test_gate_pitch_rule(self):
        node = self._make()
        assert node.gate_pitch == pytest.approx(12.6 * units.nm(130))

    def test_missing_tier_rejected(self):
        rule = MetalRule(
            min_width=units.um(0.2),
            min_spacing=units.um(0.2),
            thickness=units.um(0.3),
        )
        with pytest.raises(ConfigurationError):
            self._make(metal_rules={"local": rule})

    def test_metal_lookup_error_message(self):
        node = self._make()
        with pytest.raises(ConfigurationError, match="no tier"):
            node.metal("globall")

    def test_via_lookup_error_message(self):
        node = self._make()
        with pytest.raises(ConfigurationError, match="no via tier"):
            node.via("m1")

    def test_with_device(self):
        node = self._make()
        new_device = DeviceParameters(
            output_resistance=1000.0,
            input_capacitance=2e-15,
            parasitic_capacitance=1e-15,
            min_inverter_area=1e-14,
        )
        assert node.with_device(new_device).device is new_device

    def test_non_positive_feature_size_rejected(self):
        with pytest.raises(ConfigurationError):
            self._make(feature_size=0.0)
