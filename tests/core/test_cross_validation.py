"""Cross-validation: DP == reference == exhaustive on small instances.

The three solvers share semantics but not implementation (vectorized
prefix-sum DP vs wire-at-a-time incremental-insertion DP vs brute force
over all monotone partitions).  Exact agreement on randomized instances
is the core correctness evidence for the rank computation.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import compute_rank, solve_rank_exhaustive

from ..conftest import make_tiny_problem, solve_rank_oracle
from ..reference_dp import solve_rank_reference


def solve_all(problem, units):
    dp = compute_rank(problem, solver="dp", repeater_units=units)
    tables, _ = problem.tables()
    oracle = solve_rank_oracle(tables, units)
    assert dp.rank == oracle.rank and dp.fits == oracle.fits
    ref = solve_rank_reference(tables, repeater_units=units)
    exh = solve_rank_exhaustive(tables, repeater_units=units)
    return dp, ref, exh


class TestHandPicked:
    @pytest.mark.parametrize(
        "lengths,fraction,clock",
        [
            ([1200, 700, 300, 90, 25], 0.2, 5e8),
            ([1500, 1400, 1300], 0.05, 1e9),
            ([100, 90, 80, 70, 60, 50], 0.4, 5e8),
            ([2000, 50, 40, 30, 2, 1], 0.3, 5e8),
            ([640, 320, 160, 80, 40, 20, 10], 0.1, 2e9),
            ([33], 0.2, 5e8),
        ],
    )
    def test_agreement(self, node130, lengths, fraction, clock):
        problem = make_tiny_problem(
            node130,
            lengths,
            repeater_fraction=fraction,
            clock_frequency=clock,
        )
        dp, ref, exh = solve_all(problem, units=32)
        assert dp.rank == ref.rank == exh.rank
        assert dp.fits == ref.fits == exh.fits

    def test_zero_budget_agreement(self, node130):
        problem = make_tiny_problem(
            node130, [900, 500, 100], repeater_fraction=0.0
        )
        dp, ref, exh = solve_all(problem, units=8)
        assert dp.rank == ref.rank == exh.rank

    def test_three_pair_architecture(self, node130):
        problem = make_tiny_problem(
            node130,
            [1100, 800, 400, 200, 100, 40],
            semi_global_pairs=1,
        )
        dp, ref, exh = solve_all(problem, units=16)
        assert dp.rank == ref.rank == exh.rank


class TestRandomized:
    def test_seeded_sweep(self, node130):
        rng = random.Random(2003)
        for _ in range(30):
            n = rng.randint(2, 8)
            lengths = rng.sample(range(5, 2000), n)
            problem = make_tiny_problem(
                node130,
                lengths,
                gate_count=rng.choice([2000, 10_000, 50_000]),
                repeater_fraction=rng.choice([0.02, 0.1, 0.25, 0.45]),
                clock_frequency=rng.choice([2e8, 5e8, 1e9, 3e9]),
                semi_global_pairs=rng.choice([0, 1]),
            )
            units = rng.choice([4, 16, 64])
            dp, ref, exh = solve_all(problem, units)
            assert dp.rank == ref.rank == exh.rank, (
                f"lengths={sorted(lengths, reverse=True)} units={units}"
            )
            assert dp.fits == ref.fits == exh.fits

    @settings(max_examples=25, deadline=None)
    @given(
        lengths=st.sets(
            st.integers(min_value=2, max_value=1800), min_size=1, max_size=6
        ),
        fraction=st.sampled_from([0.03, 0.15, 0.35]),
        clock=st.sampled_from([3e8, 7e8, 1.5e9]),
        units=st.sampled_from([8, 32]),
    )
    def test_agreement_property(self, node130, lengths, fraction, clock, units):
        problem = make_tiny_problem(
            node130,
            sorted(lengths, reverse=True),
            repeater_fraction=fraction,
            clock_frequency=clock,
        )
        dp, ref, exh = solve_all(problem, units)
        assert dp.rank == ref.rank == exh.rank
        assert dp.fits == ref.fits == exh.fits


class TestGroupGranularityConsistency:
    def test_bunched_rank_within_error_bound(self, node130):
        """Rank at group granularity deviates from wire granularity by
        at most the max bunch size (paper Section 5.1)."""
        lengths = [(float(l), 12) for l in (900, 700, 500, 300, 200, 100)]
        from repro.wld.synthetic import wld_from_pairs
        from repro import RankProblem, DieModel, ArchitectureSpec, build_architecture

        arch = build_architecture(
            ArchitectureSpec(node=node130, local_pairs=1, semi_global_pairs=0, global_pairs=1)
        )
        die = DieModel(node=node130, gate_count=50_000, repeater_fraction=0.2)
        problem = RankProblem(
            arch=arch, die=die, wld=wld_from_pairs(lengths), clock_frequency=5e8
        )
        fine = compute_rank(problem, solver="dp", bunch_size=1, repeater_units=2048)
        coarse = compute_rank(problem, solver="dp", bunch_size=4, repeater_units=2048)
        assert abs(fine.rank - coarse.rank) <= 4
