"""Tests for RankProblem."""

from dataclasses import replace

import pytest

from repro.arch.stack import InterconnectArchitecture
from repro.core.problem import RankProblem
from repro.delay.target import LinearTargetModel, QuadraticTargetModel
from repro.errors import ConfigurationError, RankComputationError
from repro.wld.distribution import WireLengthDistribution

from ..conftest import make_tiny_problem


class TestValidation:
    def test_invalid_clock(self, tiny_problem):
        with pytest.raises(RankComputationError):
            tiny_problem.with_clock_frequency(0.0)

    def test_invalid_target_kind(self, tiny_problem):
        with pytest.raises(RankComputationError):
            tiny_problem.with_target_kind("cubic")

    def test_empty_wld_rejected(self, tiny_problem):
        with pytest.raises((RankComputationError, Exception)):
            RankProblem(
                arch=tiny_problem.arch,
                die=tiny_problem.die,
                wld=WireLengthDistribution.empty(),
                clock_frequency=5e8,
            )

    def test_invalid_utilization(self, node130):
        with pytest.raises(RankComputationError):
            make_tiny_problem(node130, [10.0], utilization=1.5)


class TestTargetModel:
    def test_linear_default(self, tiny_problem):
        model = tiny_problem.target_model()
        assert isinstance(model, LinearTargetModel)
        assert model.clock_frequency == tiny_problem.clock_frequency

    def test_quadratic_option(self, tiny_problem):
        model = tiny_problem.with_target_kind("quadratic").target_model()
        assert isinstance(model, QuadraticTargetModel)

    def test_lmax_is_physical_longest_wire(self, tiny_problem):
        model = tiny_problem.target_model()
        assert model.max_length == pytest.approx(
            tiny_problem.die.wire_length(tiny_problem.wld.max_length)
        )


class TestTables:
    def test_tables_roundtrip(self, tiny_problem):
        tables, bound = tiny_problem.tables()
        assert tables.num_pairs == tiny_problem.arch.num_pairs
        assert tables.total_wires == tiny_problem.wld.total_wires
        assert bound == 1  # unit counts

    def test_coarsening_keeps_lmax_scale(self, small_baseline):
        """Bunched tables must use the original WLD's l_max for targets."""
        fine, _ = small_baseline.tables()
        coarse, _ = small_baseline.tables(bunch_size=1000)
        assert fine.targets[0] == pytest.approx(coarse.targets[0])

    def test_bunch_error_bound_reported(self, small_baseline):
        _, bound = small_baseline.tables(bunch_size=1234)
        assert 0 < bound <= 1234

    def test_binning_reduces_groups(self, small_baseline):
        fine, _ = small_baseline.tables()
        binned, _ = small_baseline.tables(max_groups=50)
        assert binned.num_groups <= 50 < fine.num_groups


class TestSweepKnobs:
    def test_with_clock(self, tiny_problem):
        changed = tiny_problem.with_clock_frequency(1e9)
        assert changed.clock_frequency == pytest.approx(1e9)
        assert tiny_problem.clock_frequency == pytest.approx(5e8)

    def test_with_repeater_fraction_inflates_die(self, tiny_problem):
        changed = tiny_problem.with_repeater_fraction(0.5)
        assert changed.die.die_area > tiny_problem.die.die_area
        assert changed.die.repeater_fraction == pytest.approx(0.5)

    def test_with_arch(self, tiny_problem, arch130):
        changed = tiny_problem.with_arch(arch130)
        assert changed.arch is arch130

    def test_with_spec_keeps_the_other_knobs(self, low_k_baseline):
        changed = low_k_baseline.with_spec(permittivity=2.2)
        assert changed.spec == replace(low_k_baseline.spec, permittivity=2.2)
        assert changed.spec.miller_factor == 1.0
        assert changed.die is low_k_baseline.die

    def test_with_spec_moves_the_die_to_a_new_node(self, tiny_problem):
        node = tiny_problem.spec.node
        node = replace(node, dielectric=node.dielectric.scaled(2.5))
        changed = tiny_problem.with_spec(node=node)
        assert changed.die.node is changed.arch.spec.node is node

    def test_with_spec_needs_a_spec(self, tiny_problem):
        by_hand = InterconnectArchitecture("by-hand", tiny_problem.arch.pairs)
        with pytest.raises(ConfigurationError, match="by-hand"):
            tiny_problem.with_arch(by_hand).with_spec(permittivity=2.8)

    def test_frozen(self, tiny_problem):
        with pytest.raises(Exception):
            tiny_problem.clock_frequency = 1e9
