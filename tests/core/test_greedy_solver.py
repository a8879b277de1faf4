"""Tests for the greedy baseline and the Figure 2 counterexample (E6)."""

import pytest

from repro import (
    ArchitectureSpec,
    DieModel,
    RankProblem,
    build_architecture,
    compute_rank,
    solve_rank_exhaustive,
)
from repro.delay.repeater import optimal_repeater_size
from repro.wld.synthetic import wld_from_pairs

from ..conftest import make_tiny_problem


def figure2_problem(node130, budget_stage_multiple=2.2):
    """The paper's Figure 2 instance shape: four (near-)equal wires, two
    layer-pairs, the top pair's repeaters far more expensive, and a
    repeater budget sized to ``budget_stage_multiple`` top-pair stages.

    Greedy fills the top pair and burns the budget at the expensive
    rate; the optimum puts everything on the bottom pair.
    """
    arch = build_architecture(
        ArchitectureSpec(
            node=node130, local_pairs=1, semi_global_pairs=0, global_pairs=1
        )
    )
    device = node130.device
    s_top = optimal_repeater_size(arch.pair(0).rc, device)
    gates = 1000
    target_budget = budget_stage_multiple * s_top * device.min_inverter_area
    gate_area = node130.gate_pitch ** 2 * gates
    fraction = target_budget / (target_budget + gate_area)
    die = DieModel(node=node130, gate_count=gates, repeater_fraction=fraction)
    wld = wld_from_pairs([(100.0, 1), (99.0, 1), (98.0, 1), (97.0, 1)])
    return RankProblem(arch=arch, die=die, wld=wld, clock_frequency=5e8)


class TestFigure2:
    def test_greedy_rank_2_optimal_rank_4(self, node130):
        """The paper's exact headline: greedy 2 vs optimal 4."""
        problem = figure2_problem(node130, budget_stage_multiple=2.2)
        greedy = compute_rank(problem, solver="greedy")
        optimal = compute_rank(problem, solver="dp", repeater_units=256)
        assert greedy.rank == 2
        assert optimal.rank == 4

    def test_exhaustive_confirms_optimum(self, node130):
        problem = figure2_problem(node130)
        optimal = compute_rank(problem, solver="dp", repeater_units=256)
        tables, _ = problem.tables()
        brute = solve_rank_exhaustive(tables, repeater_units=256)
        assert brute.rank == optimal.rank == 4

    def test_gap_scales_with_budget(self, node130):
        """With a one-stage budget greedy drops to 1; optimum keeps 4
        while the budget still covers four cheap stages."""
        problem = figure2_problem(node130, budget_stage_multiple=1.4)
        greedy = compute_rank(problem, solver="greedy")
        optimal = compute_rank(problem, solver="dp", repeater_units=256)
        assert greedy.rank == 1
        assert optimal.rank == 4


class TestGreedyGeneralBehaviour:
    def test_never_beats_dp(self, node130):
        """Greedy is a lower bound on the optimum (spot-check grid)."""
        for lengths in (
            [1200, 700, 300, 90, 25],
            [500, 400, 300, 200, 100, 50],
            list(range(40, 400, 40)),
        ):
            for fraction in (0.05, 0.2, 0.4):
                problem = make_tiny_problem(
                    node130, lengths, repeater_fraction=fraction
                )
                greedy = compute_rank(problem, solver="greedy")
                optimal = compute_rank(
                    problem, solver="dp", repeater_units=4096
                )
                assert optimal.rank >= greedy.rank

    def test_fits_flag(self, tiny_problem):
        result = compute_rank(tiny_problem, solver="greedy")
        assert result.fits

    def test_unfittable_gives_rank_zero(self, node130):
        problem = make_tiny_problem(
            node130, [2000] * 8, gate_count=1000, repeater_fraction=0.05
        )
        result = compute_rank(problem, solver="greedy")
        assert not result.fits
        assert result.rank == 0

    def test_stats(self, tiny_problem):
        result = compute_rank(tiny_problem, solver="greedy")
        assert result.stats.solver == "greedy"
