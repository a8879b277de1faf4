"""Tests for timing-slack profiles."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.analysis.slack import (
    BUDGET_OR_ROUTING,
    DELAY_WALL,
    NOTHING,
    binding_constraint,
    slack_profile,
    summarize_slack,
)
from repro.core.rank import compute_rank
from repro.errors import RankComputationError

FAST = dict(bunch_size=2000, repeater_units=256)


@pytest.fixture(scope="module")
def profiled(small_baseline):
    result = compute_rank(small_baseline, collect_witness=True, **FAST)
    tables, _ = small_baseline.tables(bunch_size=2000)
    return tables, result, slack_profile(tables, result)


class TestProfile:
    def test_covers_certified_groups(self, profiled):
        tables, result, profile = profiled
        assert sum(g.wires for g in profile) == result.rank

    def test_all_slacks_non_negative(self, profiled):
        """Every certified group genuinely meets its target."""
        _, _, profile = profiled
        for group in profile:
            assert group.slack >= -1e-15

    def test_rank_order(self, profiled):
        _, _, profile = profiled
        indices = [g.group for g in profile]
        assert indices == sorted(indices)

    def test_minimality_of_stage_counts(self, profiled):
        """One fewer stage would miss the target (where stages > 1)."""
        from repro.delay.ottenbrayton import wire_delay

        tables, _, profile = profiled
        device = tables.die.node.device
        checked = 0
        for group in profile:
            if group.stages > 1:
                rc = tables.arch.pair(group.pair).rc
                size = float(tables.repeater_size[group.pair])
                length = float(tables.lengths_m[group.group])
                fewer = wire_delay(rc, device, size, group.stages - 1, length)
                assert fewer > group.target
                checked += 1
                if checked > 20:
                    break

    def test_requires_witness(self, small_baseline):
        result = compute_rank(small_baseline, **FAST)
        tables, _ = small_baseline.tables(bunch_size=2000)
        with pytest.raises(RankComputationError, match="witness"):
            slack_profile(tables, result)


class TestSummary:
    def test_fields(self, profiled):
        _, _, profile = profiled
        summary = summarize_slack(profile)
        assert summary.min_slack >= -1e-15
        assert summary.critical_length > 0
        assert 0.0 <= summary.median_relative_slack <= 1.0

    def test_boundary_diagnoses_binding_constraint(self, profiled):
        """The baseline is budget-bound: the first uncertified group
        could still meet its target on some pair."""
        tables, result, _ = profiled
        assert binding_constraint(tables, result.rank) == BUDGET_OR_ROUTING

    def test_wall_bound_case(self, small_baseline):
        """On the wall, the first uncertified group meets its target on
        no pair.  The wall frequency scales with l_max: at 100k gates
        (l_max ~347 pitches) the l=2 class dies near 5 GHz, not the
        1M-gate design's 1.1 GHz — frequencies here are chosen for this
        design size."""
        fast_clock = small_baseline.with_clock_frequency(4.5e9)
        result = compute_rank(fast_clock, **FAST)
        tables, _ = fast_clock.tables(bunch_size=2000)
        assert binding_constraint(tables, result.rank) == DELAY_WALL

    def test_empty_profile_rejected(self):
        with pytest.raises(RankComputationError):
            summarize_slack([])


class TestBindingConstraint:
    """The verdict on hand-built tables: three groups of 10 wires on two
    pairs, ``stages[p, g]`` the charged stage count (``-1``: the group
    cannot meet its target on pair ``p``)."""

    @staticmethod
    def tables(stages):
        stages = np.array(stages)
        counts = np.full(stages.shape[1], 10)
        return SimpleNamespace(
            stages=stages,
            num_groups=stages.shape[1],
            cum_wires=np.concatenate(([0], np.cumsum(counts))),
        )

    def test_group_meeting_on_no_pair_is_the_delay_wall(self):
        tables = self.tables([[1, 2, -1], [3, -1, -1]])
        assert binding_constraint(tables, 20) == DELAY_WALL

    def test_group_meeting_on_some_pair_is_budget_or_routing(self):
        # Group 1 meets on the top pair, so the wall is not what stopped
        # a rank of 10: the budget or the routing area did.
        tables = self.tables([[1, 2, -1], [3, -1, -1]])
        assert binding_constraint(tables, 10) == BUDGET_OR_ROUTING
        assert binding_constraint(tables, 0) == BUDGET_OR_ROUTING

    def test_every_group_certified(self):
        tables = self.tables([[1, 2, 2], [3, -1, 1]])
        assert binding_constraint(tables, 30) == NOTHING
