"""Metamorphic properties of the rank metric.

Each test perturbs a problem along one axis with a *known* effect on
the output — input-order invariance, knob monotonicity, solver
equivalence — so a regression shows up as a broken relation between two
runs rather than a drifted absolute number.  Relations, unlike golden
values, survive refactors of the solver internals.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import compute_rank
from repro.wld.synthetic import wld_from_pairs

from ..conftest import make_tiny_problem, solve_rank_oracle
from ..reference_dp import solve_rank_reference

#: Small-but-nontrivial length pools for tiny problems.
_lengths = st.sets(
    st.integers(min_value=2, max_value=1500), min_size=2, max_size=6
)


def _tiny(node, lengths, **kwargs):
    return make_tiny_problem(node, lengths, **kwargs)


class TestPermutationInvariance:
    @settings(max_examples=15, deadline=None)
    @given(lengths=_lengths, data=st.data())
    def test_rank_ignores_wld_input_order(self, node130, lengths, data):
        """The WLD is a distribution: feeding the same (length, count)
        pairs in any order must yield the identical rank."""
        ordered = sorted(lengths, reverse=True)
        shuffled = data.draw(st.permutations(ordered))
        base = _tiny(node130, ordered)
        permuted = _tiny(node130, shuffled)
        r0 = compute_rank(base, repeater_units=32)
        r1 = compute_rank(permuted, repeater_units=32)
        assert r0.rank == r1.rank
        assert r0.fits == r1.fits

    def test_duplicate_pairs_aggregate(self, node130):
        """Split counts merge: [(L, 2)] == [(L, 1), (L, 1)]."""
        merged = wld_from_pairs([(400.0, 2), (50.0, 1)])
        split = wld_from_pairs([(400.0, 1), (50.0, 1), (400.0, 1)])
        assert merged.total_wires == split.total_wires
        base = _tiny(node130, [400, 50])
        import dataclasses

        a = compute_rank(dataclasses.replace(base, wld=merged), repeater_units=32)
        b = compute_rank(dataclasses.replace(base, wld=split), repeater_units=32)
        assert a.rank == b.rank


class TestKnobMonotonicity:
    @settings(max_examples=10, deadline=None)
    @given(lengths=_lengths)
    def test_rank_monotone_in_repeater_fraction(self, node130, lengths):
        """More repeater area never lowers rank (budget only adds
        options; Table 4's R column is monotone for the same reason)."""
        problem = _tiny(node130, sorted(lengths, reverse=True))
        ranks = [
            compute_rank(
                problem.with_repeater_fraction(fraction), repeater_units=32
            ).rank
            for fraction in (0.05, 0.2, 0.4)
        ]
        assert ranks == sorted(ranks)

    @settings(max_examples=10, deadline=None)
    @given(lengths=_lengths)
    def test_rank_antitone_in_clock(self, node130, lengths):
        """A faster target clock tightens every delay target, so rank
        is non-increasing in C (Table 4's C column)."""
        problem = _tiny(node130, sorted(lengths, reverse=True))
        ranks = [
            compute_rank(
                problem.with_clock_frequency(clock), repeater_units=32
            ).rank
            for clock in (2.5e8, 5.0e8, 1.0e9)
        ]
        assert ranks == sorted(ranks, reverse=True)


class TestSolverEquivalence:
    @settings(max_examples=10, deadline=None)
    @given(
        lengths=_lengths,
        fraction=st.sampled_from([0.1, 0.25, 0.4]),
    )
    def test_dp_matches_reference(self, node130, lengths, fraction):
        """The production DP agrees with the faithful wire-at-a-time
        reference on every tiny random instance (unit group counts, so
        the reference's granularity requirement holds)."""
        problem = _tiny(
            node130, sorted(lengths, reverse=True), repeater_fraction=fraction
        )
        dp = compute_rank(problem, solver="dp", repeater_units=32)
        tables, _ = problem.tables()
        ref = solve_rank_reference(tables, repeater_units=32)
        assert dp.rank == ref.rank
        assert dp.fits == ref.fits

    @settings(max_examples=10, deadline=None)
    @given(
        lengths=_lengths,
        fraction=st.sampled_from([0.1, 0.25, 0.4]),
    )
    def test_backends_are_one_solver(self, node130, lengths, fraction):
        """The NumPy DP kernel and its scalar test oracle are the
        *same* solver in two implementations: rank, witness, and
        deterministic counters must all coincide (see
        tests/core/test_backends.py for the full parity suite; this pins
        the relation alongside the other metamorphic properties)."""
        problem = _tiny(
            node130, sorted(lengths, reverse=True), repeater_fraction=fraction
        )
        np_res = compute_rank(problem, repeater_units=32, collect_witness=True)
        tables, _ = problem.tables()
        oracle = solve_rank_oracle(tables, 32, collect_witness=True)
        assert np_res.rank == oracle.rank
        assert np_res.witness == oracle.witness
        assert np_res.stats.rows == oracle.stats.rows
        assert np_res.stats.transitions == oracle.stats.transitions
