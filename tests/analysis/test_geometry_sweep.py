"""Tests for the geometric-parameter sweep (E17)."""

import pytest

from repro.analysis.sweep import sweep_tier_geometry
from repro.arch.builder import ArchitectureSpec, build_architecture
from repro.errors import ConfigurationError

FAST = dict(bunch_size=2000, repeater_units=128)


class TestTierScalingSpec:
    def test_scaling_applied_to_rules(self, node130):
        spec = ArchitectureSpec(node=node130).with_tier_scaling("global", 2.0)
        arch = build_architecture(spec)
        base = build_architecture(ArchitectureSpec(node=node130))
        assert arch.top.metal.min_width == pytest.approx(
            2 * base.top.metal.min_width
        )
        assert arch.top.metal.thickness == pytest.approx(
            2 * base.top.metal.thickness
        )
        # other tiers untouched
        assert arch[-1].metal.min_width == pytest.approx(
            base[-1].metal.min_width
        )

    def test_scaling_cuts_resistance_quadratically(self, node130):
        spec = ArchitectureSpec(node=node130).with_tier_scaling("global", 2.0)
        arch = build_architecture(spec)
        base = build_architecture(ArchitectureSpec(node=node130))
        assert arch.top.rc.resistance == pytest.approx(
            base.top.rc.resistance / 4, rel=1e-9
        )

    def test_capacitance_per_length_scale_invariant(self, node130):
        """Uniform scaling preserves all aspect ratios, so c-bar per
        unit length is unchanged — the fat-wire benefit is purely
        resistive."""
        spec = ArchitectureSpec(node=node130).with_tier_scaling("global", 2.0)
        arch = build_architecture(spec)
        base = build_architecture(ArchitectureSpec(node=node130))
        assert arch.top.rc.capacitance == pytest.approx(
            base.top.rc.capacitance, rel=1e-9
        )

    def test_replacing_existing_scale(self, node130):
        spec = (
            ArchitectureSpec(node=node130)
            .with_tier_scaling("global", 2.0)
            .with_tier_scaling("global", 3.0)
        )
        assert spec.scale_for("global") == pytest.approx(3.0)
        assert len(spec.tier_scaling) == 1

    def test_unscaled_default(self, node130):
        assert ArchitectureSpec(node=node130).scale_for("local") == 1.0

    def test_unknown_tier_rejected(self, node130):
        with pytest.raises(ConfigurationError):
            ArchitectureSpec(node=node130, tier_scaling=(("m9", 2.0),))

    def test_non_positive_factor_rejected(self, node130):
        with pytest.raises(ConfigurationError):
            ArchitectureSpec(node=node130, tier_scaling=(("global", 0.0),))


class TestGeometrySweep:
    def test_sweep_runs(self, small_baseline):
        sweep = sweep_tier_geometry(
            small_baseline, tier="semi_global", values=(0.75, 1.0, 1.5), **FAST
        )
        assert sweep.name == "geometry:semi_global"
        assert len(sweep.points) == 3
        assert all(p.result.fits for p in sweep.points)

    @pytest.mark.parametrize("baseline", ["small_baseline", "low_k_baseline"])
    def test_unit_scale_matches_baseline(self, request, baseline):
        from repro.core.rank import compute_rank

        problem = request.getfixturevalue(baseline)
        sweep = sweep_tier_geometry(problem, tier="global", values=(1.0,), **FAST)
        base = compute_rank(problem, **FAST)
        assert sweep.points[0].result.rank == base.rank

    def test_budget_bound_regime_prefers_finer_semi_global(self, small_baseline):
        """In the calibrated (budget-bound) regime, shrinking the
        semi-global tier cheapens its repeaters and raises rank."""
        sweep = sweep_tier_geometry(
            small_baseline, tier="semi_global", values=(0.75, 1.0), **FAST
        )
        fine, base = sweep.normalized_ranks()
        assert fine >= base
