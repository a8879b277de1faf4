"""Tests for shielding-aware architecture search."""

import pytest

from repro.core.scenarios import baseline_problem
from repro.optimize import (
    DesignSpace,
    evaluate_candidates_batch,
    optimize_architecture,
    shielding_capacity_factor,
)

FAST = dict(bunch_size=2000, repeater_units=128)


class TestCapacityFactor:
    def test_ladder_points(self):
        assert shielding_capacity_factor(2.0) == pytest.approx(1.0)
        assert shielding_capacity_factor(1.5) == pytest.approx(0.5)
        assert shielding_capacity_factor(1.0) == pytest.approx(1.0 / 3.0)

    def test_interpolation_monotone(self):
        values = [shielding_capacity_factor(m) for m in (1.0, 1.2, 1.5, 1.8, 2.0)]
        assert values == sorted(values)

    def test_out_of_ladder_clamped(self):
        assert shielding_capacity_factor(2.5) == pytest.approx(1.0)
        assert shielding_capacity_factor(0.5) == pytest.approx(1.0 / 3.0)


class TestShieldingAwareSearch:
    @pytest.fixture(scope="class")
    def problem(self):
        return baseline_problem("130nm", 100_000)

    @pytest.fixture(scope="class")
    def space(self, problem):
        return DesignSpace(
            node=problem.die.node,
            local_pairs=(1,),
            semi_global_pairs=(1, 2),
            global_pairs=(1,),
            permittivities=(3.9, 2.8),
            miller_factors=(2.0, 1.0),
            max_metal_layers=10,
        )

    def test_shielding_costs_capacity(self, problem, space):
        """The same M=1.0 candidate ranks lower when it must pay its
        shield tracks."""
        shielded_spec = next(
            s for s in space if s.miller_factor == 1.0 and s.permittivity == 3.9
        )
        (free,), _ = evaluate_candidates_batch(problem, [shielded_spec], **FAST)
        (honest,), _ = evaluate_candidates_batch(
            problem, [shielded_spec], shielding_aware=True, **FAST
        )
        assert honest.result.rank <= free.result.rank

    def test_unshielded_candidates_unaffected(self, problem, space):
        unshielded = next(
            s for s in space if s.miller_factor == 2.0 and s.permittivity == 3.9
        )
        (free,), _ = evaluate_candidates_batch(problem, [unshielded], **FAST)
        (honest,), _ = evaluate_candidates_batch(
            problem, [unshielded], shielding_aware=True, **FAST
        )
        assert honest.result.rank == free.result.rank

    def test_winner_can_change(self, problem, space):
        """Accounting for track cost changes (or at least re-validates)
        the optimal stack; the honest winner must itself be feasible."""
        naive = optimize_architecture(problem, space, **FAST)
        honest = optimize_architecture(
            problem, space, shielding_aware=True, **FAST
        )
        assert honest.best.result.fits
        assert honest.best.result.rank <= naive.best.result.rank
