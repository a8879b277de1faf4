"""Timing-slack profiles of witnessed rank solutions.

A rank is a single number; designers then ask *where* the margin is.
This module recomputes, for every wire group of the certified prefix,
the achieved Eq. (3) delay on its assigned pair and the slack against
its target — exposing the two structural features of the metric:

slack shrinks toward the short-wire end (the intrinsic-delay wall the
C-column plateaus come from).  What stopped the rank is not read off
the slack: :func:`binding_constraint` asks the tables whether the first
uncertified group can meet its target on any pair at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from ..assign.tables import AssignmentTables
from ..core.rank import RankResult
from ..delay.ottenbrayton import wire_delay
from ..errors import RankComputationError


@dataclass(frozen=True)
class GroupSlack:
    """Timing of one certified wire group.

    Attributes
    ----------
    group:
        Rank-order group index.
    pair:
        Layer-pair the group is assigned to.
    length_pitches:
        Group length in gate pitches.
    wires:
        Wires in the group.
    stages:
        Budget-charged stage count per wire (0 = free pass).
    target:
        Target delay, seconds.
    achieved:
        Achieved Eq. (3) delay, seconds.
    """

    group: int
    pair: int
    length_pitches: float
    wires: int
    stages: int
    target: float
    achieved: float

    @property
    def slack(self) -> float:
        """Margin in seconds (non-negative for a valid witness)."""
        return self.target - self.achieved

    @property
    def relative_slack(self) -> float:
        """Slack as a fraction of the target."""
        return self.slack / self.target if self.target > 0 else 0.0


def slack_profile(
    tables: AssignmentTables, result: RankResult
) -> List[GroupSlack]:
    """Per-group timing of a witnessed solution, rank order."""
    if result.witness is None:
        raise RankComputationError(
            "slack profile needs a witness; run compute_rank with "
            "collect_witness=True"
        )
    device = tables.die.node.device
    profile: List[GroupSlack] = []
    for segment in result.witness:
        groups = np.arange(segment.start_group, segment.end_group)
        stages = tables.stages[segment.pair][groups]
        if (stages < 0).any():
            raise RankComputationError(
                f"witness covers group {int(groups[stages < 0][0])} which is "
                f"infeasible on pair {segment.pair}"
            )
        # A free pass (0 charged stages) is the bare minimum-size driver.
        free = stages == 0
        achieved = wire_delay(
            tables.arch.pair(segment.pair).rc,
            device,
            np.where(free, 1.0, tables.repeater_size[segment.pair]),
            np.where(free, 1, stages),
            tables.lengths_m[groups],
        )
        for i, group in enumerate(groups.tolist()):
            profile.append(
                GroupSlack(
                    group=group,
                    pair=segment.pair,
                    length_pitches=float(tables.wld.lengths[group]),
                    wires=int(tables.counts[group]),
                    stages=int(stages[i]),
                    target=float(tables.targets[group]),
                    achieved=float(achieved[i]),
                )
            )
    return profile


@dataclass(frozen=True)
class SlackSummary:
    """Aggregate view of a slack profile.

    Attributes
    ----------
    min_slack:
        Smallest absolute margin over the prefix, seconds.
    critical_length:
        Length (pitches) of the group holding the minimum slack.
    median_relative_slack:
        Median relative slack across groups.
    """

    min_slack: float
    critical_length: float
    median_relative_slack: float


def summarize_slack(profile: Sequence[GroupSlack]) -> SlackSummary:
    """Condense a profile into its headline numbers."""
    if not profile:
        raise RankComputationError("empty slack profile")
    critical = min(profile, key=lambda g: g.slack)
    relatives = np.array([g.relative_slack for g in profile])
    return SlackSummary(
        min_slack=critical.slack,
        critical_length=critical.length_pitches,
        median_relative_slack=float(np.median(relatives)),
    )


#: :func:`binding_constraint` verdicts.
DELAY_WALL = "delay wall"
BUDGET_OR_ROUTING = "repeater budget or routing capacity"
NOTHING = "nothing (every wire certified)"


def binding_constraint(tables: AssignmentTables, rank: int) -> str:
    """What stopped the rank: the delay wall, or budget and routing.

    The first group past the certified prefix either meets its target
    on no pair (``tables.stages[:, g] < 0`` on every pair) — then no
    budget or routing area could certify it: the :data:`DELAY_WALL` —
    or it could meet on some pair, and the repeater budget or the
    routing capacity (with its via blockage) kept it out:
    :data:`BUDGET_OR_ROUTING`.  :data:`NOTHING` when every group is
    certified.
    """
    group = int(np.searchsorted(tables.cum_wires, rank, side="right")) - 1
    if group >= tables.num_groups:
        return NOTHING
    if (tables.stages[:, group] < 0).all():
        return DELAY_WALL
    return BUDGET_OR_ROUTING
