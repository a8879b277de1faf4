"""Tests for ArchitectureSpec and build_architecture."""

from dataclasses import replace

import pytest

from repro.arch.builder import ArchitectureSpec, build_architecture
from repro.errors import ConfigurationError


class TestSpecValidation:
    def test_defaults_match_table2(self, node130):
        spec = ArchitectureSpec(node=node130)
        assert spec.local_pairs == 1
        assert spec.semi_global_pairs == 2
        assert spec.global_pairs == 1
        assert spec.miller_factor == pytest.approx(2.0)
        assert spec.permittivity is None

    def test_num_pairs(self, node130):
        spec = ArchitectureSpec(node=node130, local_pairs=2, global_pairs=2)
        assert spec.num_pairs == 6

    def test_zero_pairs_rejected(self, node130):
        with pytest.raises(ConfigurationError):
            ArchitectureSpec(
                node=node130, local_pairs=0, semi_global_pairs=0, global_pairs=0
            )

    def test_negative_count_rejected(self, node130):
        with pytest.raises(ConfigurationError):
            ArchitectureSpec(node=node130, local_pairs=-1)

    def test_negative_miller_rejected(self, node130):
        with pytest.raises(ConfigurationError):
            ArchitectureSpec(node=node130, miller_factor=-1.0)

    def test_sub_vacuum_permittivity_rejected(self, node130):
        with pytest.raises(ConfigurationError):
            ArchitectureSpec(node=node130, permittivity=0.5)

    def test_with_miller(self, node130):
        spec = replace(ArchitectureSpec(node=node130), miller_factor=1.5)
        assert spec.miller_factor == pytest.approx(1.5)

    def test_with_permittivity(self, node130):
        spec = replace(ArchitectureSpec(node=node130), permittivity=2.8)
        assert spec.permittivity == pytest.approx(2.8)


class TestBuild:
    def test_pair_count_and_order(self, node130):
        arch = build_architecture(
            ArchitectureSpec(
                node=node130, local_pairs=2, semi_global_pairs=3, global_pairs=1
            )
        )
        tiers = [p.tier for p in arch]
        assert tiers == ["global"] + ["semi_global"] * 3 + ["local"] * 2

    def test_pairs_share_tier_rc(self, node130):
        arch = build_architecture(ArchitectureSpec(node=node130))
        sg = [p for p in arch if p.tier == "semi_global"]
        assert sg[0].rc == sg[1].rc

    def test_permittivity_scales_capacitance(self, node130):
        base = build_architecture(ArchitectureSpec(node=node130))
        lowk = build_architecture(ArchitectureSpec(node=node130, permittivity=1.95))
        for pair_base, pair_lowk in zip(base, lowk):
            assert pair_lowk.rc.capacitance == pytest.approx(
                pair_base.rc.capacitance / 2, rel=1e-9
            )
            assert pair_lowk.rc.resistance == pytest.approx(pair_base.rc.resistance)

    def test_miller_reduces_capacitance_only(self, node130):
        worst = build_architecture(ArchitectureSpec(node=node130, miller_factor=2.0))
        shielded = build_architecture(
            ArchitectureSpec(node=node130, miller_factor=1.0)
        )
        for pw, ps in zip(worst, shielded):
            assert ps.rc.capacitance < pw.rc.capacitance
            assert ps.rc.resistance == pytest.approx(pw.rc.resistance)

    def test_name_encodes_configuration(self, node130):
        arch = build_architecture(
            ArchitectureSpec(node=node130, permittivity=2.5, miller_factor=1.5)
        )
        assert "130nm" in arch.name
        assert "k=2.5" in arch.name
        assert "M=1.5" in arch.name

    def test_via_rules_assigned_per_tier(self, node130):
        arch = build_architecture(ArchitectureSpec(node=node130))
        assert arch.top.via == node130.via("global")
        assert arch[-1].via == node130.via("local")
