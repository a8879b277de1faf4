"""Tests for the sweep engine and the Table 4 sweep builders.

Full-scale 1M-gate sweeps live in benchmarks; these tests run the same
code on a 100k-gate design with a handful of points.
"""

import pytest

from repro.analysis.sweep import (
    PAPER_TABLE4_C,
    PAPER_TABLE4_K,
    PAPER_TABLE4_M,
    PAPER_TABLE4_R,
    SweepResult,
    run_sweep,
    sweep_clock,
    sweep_miller,
    sweep_permittivity,
    sweep_repeater_fraction,
)
from repro.errors import RankComputationError

FAST = dict(bunch_size=2000, repeater_units=128)


class TestPaperData:
    def test_k_column_complete(self):
        assert len(PAPER_TABLE4_K) == 22
        assert PAPER_TABLE4_K[0] == (3.90, 0.397288)
        assert PAPER_TABLE4_K[-1] == (1.80, 0.575947)

    def test_m_column_complete(self):
        assert len(PAPER_TABLE4_M) == 21
        assert PAPER_TABLE4_M[-1] == (1.00, 0.553830)

    def test_c_column_plateaus(self):
        values = dict(PAPER_TABLE4_C)
        assert values[1.1e9] == values[1.5e9] == 0.309706
        assert values[1.6e9] == values[1.7e9] == 0.235608

    def test_r_column_linear(self):
        """The paper's R column is linear in R to ~1e-3."""
        ranks = [rank for _, rank in PAPER_TABLE4_R]
        increments = [b - a for a, b in zip(ranks, ranks[1:])]
        assert max(increments) - min(increments) < 3e-3


class TestRunSweep:
    def test_generic_engine(self, small_baseline):
        sweep = run_sweep(
            "R",
            [0.2, 0.4],
            lambda r: small_baseline.with_repeater_fraction(r),
            paper=dict(PAPER_TABLE4_R),
            **FAST,
        )
        assert sweep.name == "R"
        assert len(sweep.points) == 2
        assert sweep.points[0].paper_normalized == pytest.approx(0.210967)
        assert sweep.values() == [0.2, 0.4]

    def test_improvement(self, small_baseline):
        sweep = run_sweep(
            "R",
            [0.2, 0.4],
            lambda r: small_baseline.with_repeater_fraction(r),
            **FAST,
        )
        expected = (
            sweep.points[-1].normalized - sweep.points[0].normalized
        ) / sweep.points[0].normalized
        assert sweep.improvement() == pytest.approx(expected)

    def test_improvement_zero_baseline_rejected(self):
        from repro.core.dp import SolverStats
        from repro.core.rank import RankResult
        from repro.analysis.sweep import SweepPoint

        zero = RankResult(
            rank=0, normalized=0.0, total_wires=10, fits=True,
            error_bound=0, solver="dp", stats=SolverStats(),
        )
        sweep = SweepResult(
            name="X",
            points=(SweepPoint(1.0, zero), SweepPoint(2.0, zero)),
        )
        with pytest.raises(RankComputationError):
            sweep.improvement()


class TestTable4Sweeps:
    def test_k_sweep_monotone_increasing(self, small_baseline):
        sweep = sweep_permittivity(small_baseline, values=[3.9, 3.0, 2.2], **FAST)
        assert sweep.is_monotone()
        assert sweep.points[0].paper_normalized == pytest.approx(0.397288)

    def test_m_sweep_monotone_increasing(self, small_baseline):
        sweep = sweep_miller(small_baseline, values=[2.0, 1.5, 1.0], **FAST)
        assert sweep.is_monotone()

    def test_c_sweep_monotone_decreasing(self, small_baseline):
        sweep = sweep_clock(small_baseline, values=[5e8, 1.1e9, 1.7e9], **FAST)
        assert sweep.is_monotone(non_increasing=True)

    def test_r_sweep_monotone_increasing(self, small_baseline):
        sweep = sweep_repeater_fraction(
            small_baseline, values=[0.1, 0.3, 0.5], **FAST
        )
        assert sweep.is_monotone()

    def test_default_values_match_paper_grid(self, small_baseline):
        sweep = sweep_repeater_fraction(small_baseline, **FAST)
        assert sweep.values() == [r for r, _ in PAPER_TABLE4_R]

    @pytest.mark.parametrize("baseline", ["small_baseline", "low_k_baseline"])
    def test_k_and_m_coincide_at_baseline(self, request, baseline):
        """At the baseline's own K and M, both sweeps solve the baseline."""
        problem = request.getfixturevalue(baseline)
        k = sweep_permittivity(problem, values=[problem.spec.permittivity], **FAST)
        m = sweep_miller(problem, values=[problem.spec.miller_factor], **FAST)
        assert k.points[0].normalized == pytest.approx(m.points[0].normalized)
