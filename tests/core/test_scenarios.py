"""Tests for the paper scenario builders."""

from collections import Counter

import pytest

from repro.core.scenarios import (
    BASELINE_CLOCK_HZ,
    BASELINE_MILLER,
    BASELINE_PERMITTIVITY,
    BASELINE_REPEATER_FRACTION,
    baseline_problem,
    paper_baseline_130nm,
)
from repro.errors import ConfigurationError
from repro.wld.synthetic import wld_from_pairs


class TestBaselineProblem:
    def test_table2_defaults(self):
        problem = baseline_problem("130nm", 50_000)
        assert problem.clock_frequency == pytest.approx(BASELINE_CLOCK_HZ)
        assert problem.die.repeater_fraction == pytest.approx(
            BASELINE_REPEATER_FRACTION
        )
        counts = Counter(pair.tier for pair in problem.arch)
        assert counts == {"global": 1, "semi_global": 2, "local": 1}

    def test_baseline_constants_match_table2(self):
        assert BASELINE_PERMITTIVITY == pytest.approx(3.9)
        assert BASELINE_MILLER == pytest.approx(2.0)
        assert BASELINE_CLOCK_HZ == pytest.approx(500e6)

    def test_custom_wld_skips_davis(self):
        wld = wld_from_pairs([(10.0, 5)])
        problem = baseline_problem("130nm", 50_000, wld=wld)
        assert problem.wld is wld

    def test_davis_wld_cached(self):
        a = baseline_problem("130nm", 50_000)
        b = baseline_problem("130nm", 50_000)
        assert a.wld is b.wld

    def test_unknown_node_rejected(self):
        with pytest.raises(ConfigurationError):
            baseline_problem("65nm", 1000)

    def test_overrides(self):
        problem = baseline_problem(
            "90nm",
            50_000,
            clock_frequency=1e9,
            miller_factor=1.5,
            permittivity=2.8,
            repeater_fraction=0.25,
        )
        assert problem.clock_frequency == pytest.approx(1e9)
        assert problem.die.repeater_fraction == pytest.approx(0.25)
        assert "k=2.8" in problem.arch.name
        assert "M=1.5" in problem.arch.name


class TestPaperBaseline:
    def test_is_1m_gates_130nm(self):
        problem = paper_baseline_130nm()
        assert problem.die.gate_count == 1_000_000
        assert problem.die.node.name == "130nm"

    def test_paper_wld_wire_count(self):
        """The identity check: 2,988,057 wires (see test_davis)."""
        assert paper_baseline_130nm().wld.total_wires == 2_988_057

    def test_override_forwarding(self):
        problem = paper_baseline_130nm(clock_frequency=1.1e9)
        assert problem.clock_frequency == pytest.approx(1.1e9)
