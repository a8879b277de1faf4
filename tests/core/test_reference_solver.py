"""Direct tests of the wire-at-a-time reference solver internals."""

import pytest

from repro.core.discretize import discretize_repeaters
from repro.core.rank import compute_rank
from repro.errors import RankComputationError

from ..conftest import make_tiny_problem
from ..reference_dp import (
    _greedy_pack,
    _incremental_insertion,
    _wire_assign,
    solve_rank_reference,
)


@pytest.fixture
def problem(node130):
    return make_tiny_problem(node130, [1400, 800, 400, 150, 50])


@pytest.fixture
def tables(problem):
    return problem.tables()[0]


class TestGranularityGuard:
    def test_rejects_multiwire_groups(self, node130):
        from repro.wld.synthetic import wld_from_pairs
        from repro import DieModel, RankProblem, ArchitectureSpec, build_architecture

        arch = build_architecture(ArchitectureSpec(node=node130))
        problem = RankProblem(
            arch=arch,
            die=DieModel(node=node130, gate_count=10_000, repeater_fraction=0.2),
            wld=wld_from_pairs([(100.0, 5)]),
            clock_frequency=5e8,
        )
        tables, _ = problem.tables()
        with pytest.raises(RankComputationError, match="one wire per group"):
            solve_rank_reference(tables)


class TestIncrementalInsertion:
    def test_returns_charged_and_inline(self, tables):
        outcome = _incremental_insertion(tables, tables.num_pairs - 1, 0)
        assert outcome is not None
        charged, inline = outcome
        assert charged >= 1
        assert inline == charged - 1

    def test_matches_tables_stage_count(self, tables):
        """The incremental loop and the closed form in the tables must
        agree wire by wire, pair by pair."""
        for pair in range(tables.num_pairs):
            for wire in range(tables.num_groups):
                outcome = _incremental_insertion(tables, pair, wire)
                expected = int(tables.stages[pair][wire])
                if expected < 0:
                    assert outcome is None
                else:
                    assert outcome is not None
                    assert outcome[0] == expected


class TestWireAssignOracle:
    def test_empty_block(self, tables):
        disc = discretize_repeaters(tables, 32)
        outcome = _wire_assign(tables, disc, 0, 0, 0, 0, 0, 32)
        assert outcome == (0, 0, tables.capacity(0, 0, 0))

    def test_budget_refusal(self, tables):
        disc = discretize_repeaters(tables, 32)
        outcome = _wire_assign(tables, disc, 0, 0, 2, 0, 0, 0)
        # two longest wires need stages; zero cells cannot pay
        assert outcome is None


class TestGreedyPackOracle:
    def test_empty_suffix(self, tables):
        assert _greedy_pack(tables, tables.num_groups, 0, 0, 0)

    def test_no_pairs(self, tables):
        assert not _greedy_pack(tables, 0, tables.num_pairs, 0, 0)

    def test_agrees_with_group_packer(self, tables):
        """The per-wire literal port and the group-level packer must
        agree on unit-count tables."""
        from repro.assign.greedy_assign import pack_suffix

        for start in range(tables.num_groups + 1):
            for top in range(tables.num_pairs + 1):
                assert _greedy_pack(tables, start, top, 0, 0) == pack_suffix(
                    tables, start, top, 0, 0
                )


class TestEndToEnd:
    def test_matches_dp(self, problem):
        tables, _ = problem.tables()
        ref = solve_rank_reference(tables, repeater_units=32)
        dp = compute_rank(problem, solver="dp", repeater_units=32)
        assert ref.rank == dp.rank
        assert ref.stats.solver == "reference"
