"""Tests for architecture search."""

import pytest

from repro.core.rank import compute_rank
from repro.core.scenarios import baseline_problem
from repro.errors import RankComputationError
from repro.optimize.search import (
    CandidateResult,
    evaluate_candidates_batch,
    hill_climb,
    optimize_architecture,
    pareto_front,
)
from repro.optimize.space import DesignSpace

FAST = dict(bunch_size=2000, repeater_units=128)


@pytest.fixture(scope="module")
def problem():
    return baseline_problem("130nm", 100_000)


@pytest.fixture(scope="module")
def space(problem):
    return DesignSpace(
        node=problem.die.node,
        local_pairs=(1,),
        semi_global_pairs=(1, 2),
        global_pairs=(1,),
        permittivities=(3.9, 2.8),
        max_metal_layers=10,
    )


@pytest.fixture(scope="module")
def outcome(problem, space):
    return optimize_architecture(problem, space, **FAST)


class TestEvaluate:
    def test_all_candidates_evaluated(self, problem, space):
        results, _ = evaluate_candidates_batch(problem, list(space), **FAST)
        assert len(results) == space.size()
        assert all(isinstance(r, CandidateResult) for r in results)

    def test_labels(self, problem, space):
        results, _ = evaluate_candidates_batch(problem, [space.default_spec()], **FAST)
        label = results[0].label()
        assert "G1" in label and "k=3.9" in label

    def test_metal_layers(self, problem, space):
        results, _ = evaluate_candidates_batch(problem, [space.default_spec()], **FAST)
        assert results[0].metal_layers == 2 * 3

    @pytest.mark.parametrize(
        "baseline,tier_scaling",
        [("low_k_baseline", ()), ("small_baseline", (("semi_global", 0.5),))],
    )
    def test_baseline_candidate_has_baseline_rank(
        self, request, baseline, tier_scaling
    ):
        """A candidate varies only tier counts, K and M: the problem's
        other knobs (here its tier scaling) carry over to it."""
        base = request.getfixturevalue(baseline).with_spec(
            tier_scaling=tier_scaling
        )
        spec = base.spec
        space = DesignSpace(
            node=base.die.node,
            local_pairs=(spec.local_pairs,),
            semi_global_pairs=(spec.semi_global_pairs,),
            global_pairs=(spec.global_pairs,),
            permittivities=(spec.permittivity,),
            miller_factors=(spec.miller_factor,),
        )
        options = dict(bunch_size=2000, repeater_units=64)
        (candidate,), _ = evaluate_candidates_batch(base, list(space), **options)
        assert candidate.result.rank == compute_rank(base, **options).rank


class TestOptimize:
    def test_best_is_max_rank(self, outcome):
        assert outcome.best.result.rank == max(
            c.result.rank for c in outcome.evaluated
        )

    def test_lowk_wins(self, outcome):
        """In the paper's regime the dielectric knob dominates extra
        metal: the best candidate buys the low-k class."""
        assert outcome.best.spec.permittivity == pytest.approx(2.8)

    def test_pareto_subset_and_sorted(self, outcome):
        assert set(id(c) for c in outcome.pareto) <= set(
            id(c) for c in outcome.evaluated
        )
        layers = [c.metal_layers for c in outcome.pareto]
        assert layers == sorted(layers)

    def test_pareto_non_dominated(self, outcome):
        for a in outcome.pareto:
            for b in outcome.evaluated:
                dominates = (
                    b.result.rank >= a.result.rank
                    and b.metal_layers <= a.metal_layers
                    and (
                        b.result.rank > a.result.rank
                        or b.metal_layers < a.metal_layers
                    )
                )
                assert not dominates

    def test_empty_space_rejected(self, problem, node130):
        space = DesignSpace(
            node=node130,
            local_pairs=(4,),
            semi_global_pairs=(4,),
            global_pairs=(4,),
            max_metal_layers=2,  # nothing fits the budget
        )
        with pytest.raises(RankComputationError):
            optimize_architecture(problem, space, **FAST)


class TestHillClimb:
    def test_trajectory_improves_monotonically(self, problem, space):
        trajectory = hill_climb(problem, space, **FAST)
        ranks = [c.result.rank for c in trajectory]
        assert ranks == sorted(ranks)

    def test_reaches_exhaustive_optimum_on_small_space(
        self, problem, space, outcome
    ):
        """This space's rank landscape is monotone per knob, so the
        climb must find the global best."""
        trajectory = hill_climb(problem, space, **FAST)
        assert trajectory[-1].result.rank == outcome.best.result.rank

    def test_max_steps_validated(self, problem, space):
        with pytest.raises(TypeError, match="max_steps"):
            hill_climb(problem, space, max_steps=0, **FAST)


class TestParetoFront:
    def test_empty(self):
        assert pareto_front([]) == []

    def test_single(self, outcome):
        single = [outcome.evaluated[0]]
        assert pareto_front(single) == single
