"""Tests for independent witness verification."""

import dataclasses

import pytest

from repro.core.dp import WitnessSegment
from repro.core.rank import compute_rank
from repro.errors import RankComputationError

from ..conftest import make_tiny_problem
from ..witness_check import verify_witness


@pytest.fixture(scope="module")
def verified(node130):
    problem = make_tiny_problem(
        node130,
        list(range(100, 1600, 100)),
        gate_count=20_000,
        repeater_fraction=0.3,
    )
    result = compute_rank(problem, collect_witness=True, repeater_units=128)
    tables, _ = problem.tables()
    return problem, tables, result


class TestAcceptsValidWitness:
    def test_solver_output_verifies(self, verified):
        _, tables, result = verified
        verify_witness(tables, result)  # must not raise

    def test_baseline_scale_verifies(self, small_baseline):
        result = compute_rank(
            small_baseline, bunch_size=2000, repeater_units=256,
            collect_witness=True,
        )
        tables, _ = small_baseline.tables(bunch_size=2000)
        verify_witness(tables, result)


class TestRejectsTampering:
    def _tamper(self, result, witness):
        return dataclasses.replace(result, witness=tuple(witness))

    def test_missing_witness(self, verified):
        _, tables, result = verified
        bare = dataclasses.replace(result, witness=None)
        with pytest.raises(RankComputationError, match="no witness"):
            verify_witness(tables, bare)

    def test_inflated_rank_claim(self, verified):
        _, tables, result = verified
        inflated = dataclasses.replace(result, rank=result.rank + 1)
        with pytest.raises(RankComputationError, match="claims rank"):
            verify_witness(tables, inflated)

    def test_non_contiguous_groups(self, verified):
        _, tables, result = verified
        witness = list(result.witness)
        tampered = [
            dataclasses.replace(witness[-1], start_group=witness[-1].start_group + 1)
        ]
        bad = self._tamper(result, witness[:-1] + tampered)
        with pytest.raises(RankComputationError):
            verify_witness(tables, bad)

    def test_pair_order_violation(self, verified):
        _, tables, result = verified
        witness = list(result.witness)
        if len(witness) < 2:
            pytest.skip("need two segments to swap")
        swapped = [witness[1], witness[0]] + witness[2:]
        # re-anchor start groups so only the pair order is wrong
        with pytest.raises(RankComputationError):
            verify_witness(tables, self._tamper(result, swapped))

    def test_overstuffed_pair(self, small_baseline):
        """Claiming the whole 300k-wire WLD meets delay inside the top
        pair must fail the capacity (or budget) check."""
        result = compute_rank(
            small_baseline, bunch_size=2000, repeater_units=128,
            collect_witness=True,
        )
        tables, _ = small_baseline.tables(bunch_size=2000)
        fake = dataclasses.replace(
            result,
            rank=tables.total_wires,
            witness=(
                WitnessSegment(
                    pair=0,
                    start_group=0,
                    end_group=tables.num_groups,
                    repeater_cells=0,
                    repeaters=0,
                ),
            ),
        )
        with pytest.raises(RankComputationError):
            verify_witness(tables, fake)
