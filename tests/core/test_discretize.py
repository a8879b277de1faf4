"""Tests for the shared repeater-area discretization."""

import math

import numpy as np
import pytest

from repro.core.discretize import CEIL_EPS, discretize_repeaters
from repro.errors import RankComputationError

from ..conftest import make_tiny_problem


@pytest.fixture
def tables(node130):
    problem = make_tiny_problem(node130, [1200, 700, 300, 90, 25])
    return problem.tables()[0]


class TestBasics:
    def test_unit_area(self, tables):
        disc = discretize_repeaters(tables, 100)
        assert disc.unit_area == pytest.approx(tables.repeater_budget_area / 100)
        assert disc.num_units == 100

    def test_invalid_units_rejected(self, tables):
        with pytest.raises(RankComputationError):
            discretize_repeaters(tables, 0)

    def test_zero_budget(self, node130):
        problem = make_tiny_problem(node130, [100.0], repeater_fraction=0.0)
        tables = problem.tables()[0]
        disc = discretize_repeaters(tables, 64)
        assert disc.num_units == 0
        assert math.isinf(disc.unit_area)
        assert disc.cells(1e-15) == math.inf
        assert disc.cells(0.0) == 0.0


class TestAreaToUnits:
    def test_exact_multiple_no_roundup(self, tables):
        disc = discretize_repeaters(tables, 64)
        assert disc.cells(disc.unit_area * 3) == 3

    def test_ceil(self, tables):
        disc = discretize_repeaters(tables, 64)
        assert disc.cells(disc.unit_area * 3.01) == 4

    def test_zero_area_free(self, tables):
        disc = discretize_repeaters(tables, 64)
        assert disc.cells(0.0) == 0.0


def slice_cells(tables, disc, pair, start, end):
    """Cell cost of groups ``[start, end)`` on ``pair``."""
    cum = tables.cum_rep_area[pair]
    return disc.cells(cum[end] - cum[start])


class TestSliceUnits:
    def test_slice_matches_area(self, tables):
        """Every slice's cost against the rule written out per slice."""
        disc = discretize_repeaters(tables, 64)
        for pair in range(tables.num_pairs):
            for b in range(tables.num_groups):
                for e in range(b, tables.num_groups + 1):
                    area = float(
                        tables.cum_rep_area[pair][e] - tables.cum_rep_area[pair][b]
                    )
                    units = slice_cells(tables, disc, pair, b, e)
                    if area <= 0.0:
                        assert units == 0.0
                    else:
                        assert units == math.ceil(area / disc.unit_area - CEIL_EPS)

    def test_batch_matches_scalar(self, tables):
        disc = discretize_repeaters(tables, 64)
        for name in ("area_to_units", "slice_units", "slice_units_spans"):
            assert not hasattr(disc, name)  # cells is the one cost method
        ends = np.arange(0, tables.num_groups + 1)
        for pair in range(tables.num_pairs):
            batch = slice_cells(tables, disc, pair, 0, ends)
            for i, e in enumerate(ends):
                assert batch[i] == slice_cells(tables, disc, pair, 0, int(e))

    def test_empty_slice_free(self, tables):
        disc = discretize_repeaters(tables, 64)
        assert slice_cells(tables, disc, 0, 2, 2) == 0.0

    def test_per_slice_rounding_cheaper_than_per_group(self, tables):
        """The whole point of slice-level rounding: one ceil per block,
        not one per group."""
        disc = discretize_repeaters(tables, 1000)
        pair = tables.num_pairs - 1
        whole = slice_cells(tables, disc, pair, 0, tables.num_groups)
        per_group = sum(
            slice_cells(tables, disc, pair, g, g + 1) for g in range(tables.num_groups)
        )
        assert whole <= per_group

    def test_infeasible_group_is_free_and_walled(self, node130):
        """The cost says nothing about delay: a slice across a group
        that cannot meet its target costs what the slice before it
        does, and only ``next_infeasible`` refuses it."""
        problem = make_tiny_problem(node130, [1500, 1], clock_frequency=3e9)
        tables = problem.tables()[0]
        disc = discretize_repeaters(tables, 64)
        # shortest group infeasible at 3 GHz on every pair
        assert (tables.stages[:, -1] == -1).all()
        last = tables.num_groups
        for pair in range(tables.num_pairs):
            whole = slice_cells(tables, disc, pair, 0, last)
            assert math.isfinite(whole)
            assert whole == slice_cells(tables, disc, pair, 0, last - 1)
            assert tables.next_infeasible[pair][0] == last - 1
