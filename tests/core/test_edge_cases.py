"""Edge-case coverage for the rank pipeline."""

import dataclasses

import pytest

from repro import (
    ArchitectureSpec,
    DieModel,
    RankProblem,
    build_architecture,
    compute_rank,
)
from repro.wld.synthetic import wld_from_pairs

from ..conftest import make_tiny_problem


class TestDegenerateArchitectures:
    def test_single_pair_stack(self, node130):
        problem = make_tiny_problem(
            node130,
            [800, 400, 100],
            local_pairs=1,
            semi_global_pairs=0,
            global_pairs=0,
        )
        result = compute_rank(problem, repeater_units=32)
        assert result.fits
        assert 0 <= result.rank <= 3

    def test_all_global_stack(self, node130):
        problem = make_tiny_problem(
            node130,
            [800, 400, 100],
            local_pairs=1,  # spec requires >= 0; keep one local to hold bulk
            semi_global_pairs=0,
            global_pairs=3,
        )
        result = compute_rank(problem, repeater_units=32)
        assert result.fits


class TestDegenerateWLDs:
    def test_single_wire(self, node130):
        problem = make_tiny_problem(node130, [500])
        result = compute_rank(problem, repeater_units=16)
        assert result.fits
        assert result.rank in (0, 1)
        assert result.total_wires == 1

    def test_single_group_many_wires(self, node130):
        arch = build_architecture(ArchitectureSpec(node=node130))
        problem = RankProblem(
            arch=arch,
            die=DieModel(node=node130, gate_count=10_000, repeater_fraction=0.2),
            wld=wld_from_pairs([(50.0, 200)]),
            clock_frequency=5e8,
        )
        result = compute_rank(problem, repeater_units=64)
        assert result.fits
        assert result.rank % 1 == 0

    def test_all_identical_long_wires(self, node130):
        arch = build_architecture(ArchitectureSpec(node=node130))
        problem = RankProblem(
            arch=arch,
            die=DieModel(node=node130, gate_count=10_000, repeater_fraction=0.3),
            wld=wld_from_pairs([(190.0, 8)]),
            clock_frequency=5e8,
        )
        dp = compute_rank(problem, repeater_units=64)
        greedy = compute_rank(problem, solver="greedy")
        assert dp.rank >= greedy.rank


class TestExtremeParameters:
    def test_impossible_clock_gives_zero_rank_but_fits(self, node130):
        problem = make_tiny_problem(node130, [800, 400], clock_frequency=1e12)
        result = compute_rank(problem, repeater_units=16)
        assert result.fits
        assert result.rank == 0

    def test_single_budget_cell(self, node130):
        problem = make_tiny_problem(node130, [800, 400, 100])
        result = compute_rank(problem, repeater_units=1)
        fine = compute_rank(problem, repeater_units=4096)
        assert 0 <= result.rank <= fine.rank

    def test_tiny_utilization_forces_definition3(self, node130):
        base = make_tiny_problem(node130, [1500] * 6, gate_count=1000)
        squeezed = dataclasses.replace(base, utilization=0.01)
        result = compute_rank(squeezed, repeater_units=16)
        assert not result.fits
        assert result.rank == 0

    def test_bunching_larger_than_wld_is_noop(self, node130):
        problem = make_tiny_problem(node130, [500, 300, 100])
        coarse = compute_rank(problem, bunch_size=10**6, repeater_units=32)
        fine = compute_rank(problem, repeater_units=32)
        assert coarse.rank == fine.rank

    def test_exact_budget_boundary(self, node130):
        """A budget exactly equal to the demand must be accepted
        (CEIL_EPS guards the floating-point edge)."""
        from repro.delay.repeater import optimal_repeater_size

        arch = build_architecture(
            ArchitectureSpec(
                node=node130, local_pairs=1, semi_global_pairs=0, global_pairs=1
            )
        )
        device = node130.device
        s_bot = optimal_repeater_size(arch.pair(1).rc, device)
        gates = 1000
        budget = 3 * s_bot * device.min_inverter_area  # exactly 3 stages
        gate_area = node130.gate_pitch ** 2 * gates
        die = DieModel(
            node=node130,
            gate_count=gates,
            repeater_fraction=budget / (budget + gate_area),
        )
        problem = RankProblem(
            arch=arch,
            die=die,
            wld=wld_from_pairs([(100.0, 1), (99.0, 1), (98.0, 1)]),
            clock_frequency=5e8,
        )
        # 3 wires x 1 stage each on the bottom pair = exactly the budget
        result = compute_rank(problem, repeater_units=3)
        assert result.rank == 3
