"""Golden regression values at full paper scale.

These exact integers pin the calibrated reproduction: any change to the
WLD generator, RC models, device constants, delay model, discretization
or solver that moves a headline number will fail here loudly instead of
silently drifting EXPERIMENTS.md.  Each check is a single ~0.5 s rank
computation.

If a change is *intentional* (recalibration), update these values and
EXPERIMENTS.md together.
"""

import pytest

from repro import compute_rank
from repro.api import baseline_problem
from repro.core.scenarios import paper_baseline_130nm
from repro.wld.davis import DavisParameters, davis_wld

PAPER_OPTIONS = dict(bunch_size=10_000, repeater_units=512)


@pytest.fixture(scope="module")
def baseline():
    return paper_baseline_130nm()


class TestGoldenWLD:
    def test_total_wires(self):
        wld = davis_wld(DavisParameters(gate_count=1_000_000))
        assert wld.total_wires == 2_988_057

    def test_length_class_shares(self):
        wld = davis_wld(DavisParameters(gate_count=1_000_000))
        counts = {length: count for length, count in wld}
        n = wld.total_wires
        assert n - counts[1.0] == 1_385_289  # wires >= 2 pitches
        assert n - counts[1.0] - counts[2.0] == 925_475  # >= 3
        assert n - counts[1.0] - counts[2.0] - counts[3.0] == 704_072  # >= 4


class TestGoldenRanks:
    def test_baseline_rank(self, baseline):
        result = compute_rank(baseline, **PAPER_OPTIONS)
        assert result.rank == 1_305_475
        assert result.normalized == pytest.approx(0.436898, abs=1e-6)

    def test_c_plateau_low(self, baseline):
        result = compute_rank(
            baseline.with_clock_frequency(1.3e9), **PAPER_OPTIONS
        )
        assert result.rank == 925_475  # exactly the l>=3 share

    def test_c_plateau_high(self, baseline):
        result = compute_rank(
            baseline.with_clock_frequency(1.7e9), **PAPER_OPTIONS
        )
        assert result.rank == 704_072  # exactly the l>=4 share

    def test_r_low_budget(self, baseline):
        result = compute_rank(
            baseline.with_repeater_fraction(0.1), **PAPER_OPTIONS
        )
        assert result.rank == 210_875

    def test_greedy_baseline(self, baseline):
        result = compute_rank(baseline, solver="greedy", bunch_size=10_000)
        assert result.rank == 1_193_992


class TestGoldenTenMillionGates:
    """Ten times the paper's scale, where a pair holds millions of
    candidates and reduces them on the way: the rank is the length >= 4
    share of the WLD at every K, the delay wall's plateau.  A rank check
    only; how long it takes is the benchmark's business."""

    @pytest.mark.parametrize("permittivity", [3.9, 3.0, 2.0])
    def test_rank(self, permittivity):
        problem = baseline_problem("130nm", 10_000_000, permittivity=permittivity)
        assert compute_rank(problem, **PAPER_OPTIONS).rank == 7_176_965
