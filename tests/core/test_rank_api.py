"""Tests for the public compute_rank API and RankResult."""

import pytest

from repro.core.rank import SOLVERS, compute_rank
from repro.errors import RankComputationError


class TestComputeRank:
    def test_unknown_solver_rejected(self, tiny_problem):
        with pytest.raises(RankComputationError, match="unknown solver"):
            compute_rank(tiny_problem, solver="magic")

    def test_all_solvers_registered(self):
        assert SOLVERS == ("dp", "greedy")

    @pytest.mark.parametrize("oracle", ["reference", "exhaustive"])
    def test_test_oracles_are_not_solvers(self, tiny_problem, oracle):
        with pytest.raises(RankComputationError, match=r"\('dp', 'greedy'\)"):
            compute_rank(tiny_problem, solver=oracle)

    def test_normalized_rank(self, tiny_problem):
        result = compute_rank(tiny_problem)
        assert result.normalized == pytest.approx(
            result.rank / tiny_problem.wld.total_wires
        )

    def test_total_wires_is_original(self, small_baseline):
        """Normalization uses the uncoarsened wire count."""
        result = compute_rank(small_baseline, bunch_size=1000)
        assert result.total_wires == small_baseline.wld.total_wires

    def test_error_bound_from_bunching(self, small_baseline):
        result = compute_rank(small_baseline, bunch_size=500)
        assert 0 < result.error_bound <= 500

    def test_summary_mentions_key_facts(self, tiny_problem):
        result = compute_rank(tiny_problem)
        text = result.summary()
        assert str(result.rank) in text
        assert "dp" in text

    def test_summary_flags_nonfitting(self, node130):
        from ..conftest import make_tiny_problem

        problem = make_tiny_problem(
            node130, [2000] * 8, gate_count=1000, repeater_fraction=0.05
        )
        result = compute_rank(problem)
        assert "DOES NOT FIT" in result.summary()

    def test_witness_none_by_default(self, tiny_problem):
        assert compute_rank(tiny_problem).witness is None

    def test_result_frozen(self, tiny_problem):
        result = compute_rank(tiny_problem)
        with pytest.raises(Exception):
            result.rank = 0


class TestCoarseningOptions:
    def test_bunch_and_bin_compose(self, small_baseline):
        result = compute_rank(small_baseline, bunch_size=2000, max_groups=40)
        assert result.fits
        assert result.error_bound <= 2000

    def test_coarse_and_fine_close(self, small_baseline):
        fine = compute_rank(small_baseline, bunch_size=500)
        coarse = compute_rank(small_baseline, bunch_size=5000)
        assert abs(fine.rank - coarse.rank) <= fine.error_bound + coarse.error_bound
