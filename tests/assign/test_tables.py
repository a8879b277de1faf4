"""Tests for AssignmentTables construction."""

import numpy as np
import pytest

from repro.assign.tables import build_tables
from repro.delay.repeater import optimal_repeater_size
from repro.delay.target import LinearTargetModel
from repro.errors import RankComputationError
from repro.wld.synthetic import wld_from_pairs


def make_tables(arch130, die130, lengths_counts, clock=5e8, **kwargs):
    wld = wld_from_pairs(lengths_counts)
    target = LinearTargetModel(
        max_length=die130.wire_length(wld.max_length), clock_frequency=clock
    )
    return build_tables(arch130, die130, wld, target, **kwargs)


@pytest.fixture
def tables(arch130, die130):
    return make_tables(
        arch130, die130, [(1000.0, 2), (300.0, 10), (40.0, 100), (2.0, 500)]
    )


class TestShapes:
    def test_dimensions(self, tables):
        assert tables.num_pairs == 4
        assert tables.num_groups == 4
        assert tables.total_wires == 612
        assert tables.wire_area.shape == (4, 4)
        assert tables.cum_wire_area.shape == (4, 5)

    def test_cum_wires(self, tables):
        assert list(tables.cum_wires) == [0, 2, 12, 112, 612]

    def test_lengths_converted_to_metres(self, tables, die130):
        assert tables.lengths_m[0] == pytest.approx(
            1000.0 * die130.adjusted_gate_pitch
        )


class TestPerPairQuantities:
    def test_wire_area_formula(self, tables):
        for p in range(tables.num_pairs):
            expected = tables.lengths_m * tables.pair_pitch[p] * tables.counts
            assert tables.wire_area[p] == pytest.approx(expected)

    def test_cum_wire_area_consistent(self, tables):
        for p in range(tables.num_pairs):
            assert tables.cum_wire_area[p][-1] == pytest.approx(
                tables.wire_area[p].sum()
            )
            assert (np.diff(tables.cum_wire_area[p]) >= 0).all()

    def test_repeater_size_is_eq4_optimum(self, tables, arch130, die130):
        for p, pair in enumerate(arch130):
            assert tables.repeater_size[p] == pytest.approx(
                optimal_repeater_size(pair.rc, die130.node.device)
            )

    def test_global_pair_largest_repeaters(self, tables):
        assert tables.repeater_size[0] == tables.repeater_size.max()

    def test_rep_area_charges_stages(self, tables):
        """Budget area = count * charged_stages * unit area."""
        for p in range(tables.num_pairs):
            charged = np.where(tables.stages[p] > 0, tables.stages[p], 0)
            expected = tables.counts * charged * tables.repeater_unit_area[p]
            assert tables.rep_area[p] == pytest.approx(expected)

    def test_inserted_is_stages_minus_one(self, tables):
        for p in range(tables.num_pairs):
            expected = np.maximum(
                np.where(tables.stages[p] > 0, tables.stages[p], 0) - 1, 0
            )
            assert (tables.inserted[p] == expected).all()

    def test_next_infeasible_structure(self, tables):
        for p in range(tables.num_pairs):
            nxt = tables.next_infeasible[p]
            assert nxt[-1] == tables.num_groups
            for g in range(tables.num_groups):
                limit = int(nxt[g])
                # all groups in [g, limit) are feasible on this pair
                assert (tables.stages[p][g:limit] >= 0).all()
                if limit < tables.num_groups:
                    assert tables.stages[p][limit] < 0


class TestCapacity:
    def test_unblocked_capacity(self, tables, die130):
        assert tables.capacity(0, 0, 0) == pytest.approx(2.0 * die130.die_area)

    def test_blockage_reduces_capacity(self, tables):
        assert tables.capacity(2, 100, 50) < tables.capacity(2, 0, 0)

    def test_blockage_formula(self, tables):
        expected = tables.routing_capacity - (
            50 + tables.vias_per_wire * 100
        ) * float(tables.via_area[2])
        assert tables.capacity(2, 100, 50) == pytest.approx(expected)

    def test_clamped_at_zero(self, tables):
        assert tables.capacity(3, 1e12, 1e12) == 0.0

    def test_pair_capacity_factor(self, arch130, die130):
        paper = make_tables(
            arch130, die130, [(10.0, 5)], pair_capacity_factor=1.0
        )
        assert paper.routing_capacity == pytest.approx(die130.die_area)


class TestPolicies:
    def test_budgeted_policy_never_free(self, tables):
        """Under the default policy a feasible group always pays >= 1
        charged stage (there is no stages == 0)."""
        assert not (tables.stages == 0).any()

    def test_free_bare_policy_allows_zero(self, arch130, die130):
        tables = make_tables(
            arch130,
            die130,
            [(500.0, 3), (100.0, 10)],
            driver_policy="free-bare",
        )
        # Long wires at a loose 100 MHz target pass from the bare driver.
        loose = make_tables(
            arch130,
            die130,
            [(500.0, 3), (100.0, 10)],
            clock=1e8,
            driver_policy="free-bare",
        )
        assert (loose.stages == 0).any()

    def test_unknown_policy_rejected(self, arch130, die130):
        with pytest.raises(RankComputationError):
            make_tables(arch130, die130, [(10.0, 5)], driver_policy="nonsense")

    def test_invalid_utilization_rejected(self, arch130, die130):
        with pytest.raises(RankComputationError):
            make_tables(arch130, die130, [(10.0, 5)], utilization=0.0)

    def test_invalid_capacity_factor_rejected(self, arch130, die130):
        with pytest.raises(RankComputationError):
            make_tables(arch130, die130, [(10.0, 5)], pair_capacity_factor=0.0)


class TestDelayWall:
    def test_infeasible_groups_add_nothing_and_wall_the_prefix(
        self, arch130, die130
    ):
        """A 3 GHz clock makes the shortest wires infeasible.  They add
        no repeater area or count, so the cumulative sums stay finite
        and flat across them; ``next_infeasible`` alone walls them."""
        tables = make_tables(
            arch130, die130, [(1000.0, 2), (1.0, 50)], clock=3e9
        )
        assert (tables.stages[:, -1] == -1).all()
        assert (tables.rep_area[:, -1] == 0).all()
        assert (tables.inserted[:, -1] == 0).all()
        for cum in (tables.cum_rep_area, tables.cum_inserted):
            assert np.isfinite(cum).all()
            assert (cum[:, -1] == cum[:, -2]).all()
            assert (np.diff(cum, axis=1) >= 0).all()
        assert tables.cum_rep_area[:, 1].tolist() == tables.rep_area[:, 0].tolist()
        assert tables.next_infeasible.tolist() == [[1, 1, 2]] * tables.num_pairs


class TestInsertedCounts:
    """The DP kernel packs repeater counts into int64 sort keys, so the
    build refuses tables whose counts it could not hold exactly."""

    def test_counts_past_2_53_rejected(self, arch130, die130):
        """At 2 GHz a 2000-pitch wire inserts 0, 1, 1 and 2 repeaters
        on the four pairs, so a prefix can count 4 per wire: 2^53 at
        2^51 wires, and below it at one wire fewer."""
        lengths = [(2000.0, 2), (300.0, 10)]
        small = make_tables(arch130, die130, lengths, clock=2e9)
        assert small.inserted[:, 0].sum() == 4
        with pytest.raises(RankComputationError, match="2\\^53"):
            make_tables(arch130, die130, [(2000.0, 2**51), (300.0, 10)], clock=2e9)
        make_tables(arch130, die130, [(2000.0, 2**51 - 1), (300.0, 10)], clock=2e9)
