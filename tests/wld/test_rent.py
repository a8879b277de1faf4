"""Tests for Rent's-rule utilities."""

import pytest

from repro.errors import WLDError
from repro.wld.rent import (
    average_fanout,
    fanout_fraction,
    total_connections,
)


class TestFanout:
    def test_fraction_default(self):
        assert fanout_fraction() == pytest.approx(0.75)

    def test_fraction_formula(self):
        assert fanout_fraction(1.0) == pytest.approx(0.5)
        assert fanout_fraction(9.0) == pytest.approx(0.9)

    def test_invalid_fanout(self):
        with pytest.raises(WLDError):
            average_fanout(0.0)


class TestTotalConnections:
    def test_davis_total_formula(self):
        n, k, p, fo = 10_000, 4.0, 0.6, 3.0
        expected = 0.75 * 4.0 * n * (1.0 - n ** (p - 1.0))
        assert total_connections(n, k, p, fo) == pytest.approx(expected)

    def test_approaches_alpha_k_n_for_large_n(self):
        """For N -> inf the correction term vanishes: T -> alpha*k*N."""
        n = 10**9
        assert total_connections(n) == pytest.approx(0.75 * 4 * n, rel=1e-3)

    def test_positive_for_multiple_gates(self):
        assert total_connections(2) > 0

    def test_scales_superlinearly_then_linearly(self):
        """T(N)/N grows with N (fewer boundary losses on bigger chips)."""
        per_gate_small = total_connections(100) / 100
        per_gate_large = total_connections(1_000_000) / 1_000_000
        assert per_gate_large > per_gate_small
