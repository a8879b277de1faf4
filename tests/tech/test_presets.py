"""Tests for the Table 3 technology presets (experiment E10).

These tests pin the preset geometry to the numbers printed in the
paper's Table 3 — any drift in the presets is a reproduction bug.
"""

import pytest

from repro import units
from repro.errors import ConfigurationError
from repro.tech.presets import (
    METAL_LAYER_COUNTS,
    NODE_90NM,
    NODE_130NM,
    NODE_180NM,
    get_node,
)

#: (node, tier, field, value-in-um) — the paper's Table 3, verbatim.
TABLE3 = [
    ("180nm", "local", "min_width", 0.230),
    ("180nm", "local", "min_spacing", 0.230),
    ("180nm", "local", "thickness", 0.483),
    ("180nm", "semi_global", "min_width", 0.280),
    ("180nm", "semi_global", "min_spacing", 0.280),
    ("180nm", "semi_global", "thickness", 0.588),
    ("180nm", "global", "min_width", 0.440),
    ("180nm", "global", "min_spacing", 0.460),
    ("180nm", "global", "thickness", 0.960),
    ("130nm", "local", "min_width", 0.160),
    ("130nm", "local", "min_spacing", 0.180),
    ("130nm", "local", "thickness", 0.336),
    ("130nm", "semi_global", "min_width", 0.200),
    ("130nm", "semi_global", "min_spacing", 0.210),
    ("130nm", "semi_global", "thickness", 0.340),
    ("130nm", "global", "min_width", 0.440),
    ("130nm", "global", "min_spacing", 0.460),
    ("130nm", "global", "thickness", 1.020),
    ("90nm", "local", "min_width", 0.120),
    ("90nm", "local", "min_spacing", 0.120),
    ("90nm", "local", "thickness", 0.260),
    ("90nm", "semi_global", "min_width", 0.140),
    ("90nm", "semi_global", "min_spacing", 0.140),
    ("90nm", "semi_global", "thickness", 0.300),
    ("90nm", "global", "min_width", 0.420),
    ("90nm", "global", "min_spacing", 0.420),
    ("90nm", "global", "thickness", 0.880),
]

#: Via minimum widths from Table 3, in um.
TABLE3_VIAS = [
    ("180nm", "local", 0.260),
    ("180nm", "semi_global", 0.260),
    ("180nm", "global", 0.360),
    ("130nm", "local", 0.190),
    ("130nm", "semi_global", 0.260),
    ("130nm", "global", 0.360),
    ("90nm", "local", 0.130),
    ("90nm", "semi_global", 0.130),
    ("90nm", "global", 0.360),
]


@pytest.mark.parametrize("node_name,tier,field,value_um", TABLE3)
def test_table3_metal_geometry(node_name, tier, field, value_um):
    rule = get_node(node_name).metal(tier)
    assert getattr(rule, field) == pytest.approx(units.um(value_um))


@pytest.mark.parametrize("node_name,tier,value_um", TABLE3_VIAS)
def test_table3_via_widths(node_name, tier, value_um):
    via = get_node(node_name).via(tier)
    assert via.min_width == pytest.approx(units.um(value_um))


class TestNodeRegistry:
    def test_get_node_identity(self):
        assert get_node("130nm") is NODE_130NM
        assert get_node("180nm") is NODE_180NM
        assert get_node("90nm") is NODE_90NM

    def test_unknown_node_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown technology node"):
            get_node("65nm")

    def test_metal_layer_counts(self):
        """Table 3's x/t ranges: 6 metals at 180 nm, 7 at 130, 8 at 90."""
        assert METAL_LAYER_COUNTS == {"180nm": 6, "130nm": 7, "90nm": 8}


class TestNodePhysicalSanity:
    @pytest.mark.parametrize("node_name", ["180nm", "130nm", "90nm"])
    def test_feature_size_matches_name(self, node_name):
        node = get_node(node_name)
        assert node.feature_size == pytest.approx(
            units.nm(float(node_name[:-2]))
        )

    @pytest.mark.parametrize("node_name", ["180nm", "130nm", "90nm"])
    def test_tiers_coarsen_upward(self, node_name):
        """Global wires are at least as wide/thick as semi-global/local."""
        node = get_node(node_name)
        assert node.metal("global").min_width >= node.metal("semi_global").min_width
        assert node.metal("semi_global").min_width >= node.metal("local").min_width
        assert node.metal("global").thickness >= node.metal("semi_global").thickness

    def test_devices_get_faster_with_scaling(self):
        """Intrinsic stage delay shrinks with the node."""
        d180 = NODE_180NM.device.intrinsic_delay
        d130 = NODE_130NM.device.intrinsic_delay
        d90 = NODE_90NM.device.intrinsic_delay
        assert d180 > d130 > d90

    @pytest.mark.parametrize("node_name", ["180nm", "130nm", "90nm"])
    def test_min_inverter_area_tracks_feature(self, node_name):
        node = get_node(node_name)
        ratio = node.device.min_inverter_area / node.feature_size ** 2
        assert ratio == pytest.approx(1.5)

    def test_180nm_uses_aluminium_era_conductor(self):
        assert NODE_180NM.conductor.resistivity > NODE_130NM.conductor.resistivity

    @pytest.mark.parametrize("node_name", ["180nm", "130nm", "90nm"])
    def test_baseline_dielectric_is_oxide(self, node_name):
        assert get_node(node_name).dielectric.relative_permittivity == pytest.approx(3.9)
