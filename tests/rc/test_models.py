"""Tests for the WireRC bundle and extraction entry point."""

import pytest

from repro import units
from repro.errors import ConfigurationError
from repro.arch.builder import ArchitectureSpec, build_architecture
from repro.rc.capacitance import total_capacitance_per_length
from repro.rc.models import WireRC, extract_wire_rc
from repro.rc.resistance import resistance_per_length
from repro.tech.materials import COPPER, SIO2
from repro.tech.node import MetalRule
from repro.tech.presets import get_node


@pytest.fixture
def rule():
    return MetalRule(
        min_width=units.um(0.2),
        min_spacing=units.um(0.21),
        thickness=units.um(0.34),
    )


class TestWireRC:
    def test_rc_product(self):
        rc = WireRC(resistance=1e5, capacitance=2e-10)
        assert rc.rc_product == pytest.approx(2e-5)

    @pytest.mark.parametrize("r,c", [(0.0, 1e-10), (1e5, 0.0), (-1.0, 1e-10)])
    def test_non_positive_rejected(self, r, c):
        with pytest.raises(ConfigurationError):
            WireRC(resistance=r, capacitance=c)

    def test_scaled(self):
        rc = WireRC(resistance=1e5, capacitance=2e-10)
        scaled = rc.scaled(r_factor=2.0, c_factor=0.5)
        assert scaled.resistance == pytest.approx(2e5)
        assert scaled.capacitance == pytest.approx(1e-10)

    def test_scaled_rejects_non_positive(self):
        rc = WireRC(resistance=1e5, capacitance=2e-10)
        with pytest.raises(ConfigurationError):
            rc.scaled(r_factor=0.0)


class TestExtraction:
    def test_resistance_matches_component(self, rule):
        rc = extract_wire_rc(rule, COPPER, SIO2, miller_factor=2.0)
        assert rc.resistance == pytest.approx(resistance_per_length(rule, COPPER))

    def test_capacitance_matches_component(self, rule):
        rc = extract_wire_rc(rule, COPPER, SIO2, miller_factor=2.0)
        assert rc.capacitance == pytest.approx(
            total_capacitance_per_length(rule, SIO2, 2.0)
        )

    def test_miller_knob_moves_capacitance_only(self, rule):
        worst = extract_wire_rc(rule, COPPER, SIO2, 2.0)
        shielded = extract_wire_rc(rule, COPPER, SIO2, 1.0)
        assert shielded.capacitance < worst.capacitance
        assert shielded.resistance == pytest.approx(worst.resistance)

    def test_permittivity_knob_moves_capacitance_only(self, rule):
        oxide = extract_wire_rc(rule, COPPER, SIO2, 2.0)
        lowk = extract_wire_rc(rule, COPPER, SIO2.scaled(2.0), 2.0)
        assert lowk.capacitance < oxide.capacitance
        assert lowk.resistance == pytest.approx(oxide.resistance)


#: ``(resistance, capacitance)`` per 130 nm tier, in ohm/m and F/m, as the
#: extraction prints them.  Every rank downstream reads these numbers, so a
#: refactor of the extraction must keep them equal to the last bit, not
#: merely close.
PINNED_130NM_RC = {
    (3.9, 2.0): {
        "global": (49019.60784313725, 3.5678844285375853e-10),
        "semi_global": (323529.41176470584, 2.849753831124288e-10),
        "local": (409226.1904761904, 3.1143973204310576e-10),
    },
    (1.8, 1.0): {
        "global": (49019.60784313725, 9.399207234850526e-11),
        "semi_global": (323529.41176470584, 7.991983376467261e-11),
        "local": (409226.1904761904, 8.424127265888571e-11),
    },
}


@pytest.mark.parametrize(
    "permittivity,miller", list(PINNED_130NM_RC), ids=["table2-baseline", "k1.8-m1.0"]
)
def test_extracted_rc_is_bit_identical(permittivity, miller):
    arch = build_architecture(
        ArchitectureSpec(
            node=get_node("130nm"), permittivity=permittivity, miller_factor=miller
        )
    )
    extracted = {pair.tier: (pair.rc.resistance, pair.rc.capacitance) for pair in arch.pairs}
    assert extracted == PINNED_130NM_RC[(permittivity, miller)]
