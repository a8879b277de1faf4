"""Precomputed assignment tables.

Every rank solver needs the same per-(layer-pair, wire-group) quantities:
wire area, minimal repeater demand to meet the group's target delay, the
repeater silicon area that demand costs, and the via footprint the group
punches through lower pairs.  :func:`build_tables` computes them once,
vectorized, so the DP's inner loops are pure array arithmetic.

Conventions (shared with the whole library):

* layer-pair index 0 is the **topmost** pair;
* wire-group index 0 is the **longest** group (rank order);
* ``cum_*`` arrays have length ``G + 1`` with ``cum[g]`` = sum over
  groups ``0..g-1`` (so slices are ``cum[e] - cum[b]``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..arch.die import DieModel
from ..arch.stack import InterconnectArchitecture
from ..delay.ottenbrayton import wire_delay
from ..delay.repeater import min_stages_for_target, optimal_repeater_size
from ..delay.target import TargetDelayModel
from ..errors import RankComputationError
from ..rc.via import DEFAULT_VIAS_PER_WIRE
from ..wld.distribution import WireLengthDistribution


@dataclass(frozen=True)
class AssignmentTables:
    """Everything the assignment engines and solvers read.

    Attributes
    ----------
    arch, die, wld:
        The problem's architecture, die model, and (coarsened) WLD.
    lengths_m:
        Physical group lengths in metres, shape ``(G,)``.
    counts:
        Wires per group, shape ``(G,)``.
    cum_wires:
        ``(G+1,)`` cumulative wire counts; ``cum_wires[g]`` is the rank
        of the last wire of group ``g-1``.
    targets:
        Per-group target delay in seconds, shape ``(G,)``.
    routing_capacity:
        Usable routing area per layer-pair before via blockage
        (``utilization * die_area``), square metres.
    repeater_budget_area:
        The paper's ``A_R`` in square metres.
    vias_per_wire:
        The paper's ``v``.
    via_area:
        ``(m,)`` blocked area ``v_a`` of one via in each pair.
    pair_pitch:
        ``(m,)`` wire pitch (W + S) per pair.
    repeater_size:
        ``(m,)`` Eq. (4) optimal repeater size per pair.
    repeater_unit_area:
        ``(m,)`` silicon area of one repeater in each pair
        (``size * min_inverter_area``).
    wire_area:
        ``(m, G)`` total routing area of each whole group on each pair.
    cum_wire_area:
        ``(m, G+1)`` cumulative group areas.
    stages:
        ``(m, G)`` budget-charged stage count per wire of each group on
        each pair: ``-1`` where no stage count meets the target, ``0``
        where the wire passes for free (only under the ``"free-bare"``
        driver policy, when the bare minimum-size driver already meets
        the target), else the minimal count of size-``s_opt,j`` stages.
        Under the default ``"budgeted"`` policy the upsized driver is a
        budgeted stage too — the paper's footnote 3 leaves driver sizing
        outside the gate-area budget, so it must come from the repeater
        allocation; this is the policy that reproduces the paper's
        linear-in-budget Table 4 ``R`` column.
    inserted:
        ``(m, G)`` repeaters *physically inserted along the wire* per
        wire (``max(stages - 1, 0)``) — this is what punches vias
        through lower pairs; the budget is charged for ``stages``.
    rep_area:
        ``(m, G)`` repeater budget area of each whole group
        (``count * stages * repeater_unit_area``); 0 where infeasible or
        free.
    cum_rep_area, cum_inserted:
        ``(m, G+1)`` cumulative repeater areas / inserted counts (of
        ``rep_area`` and ``counts * inserted``): finite and
        non-decreasing, an infeasible group adding 0.
    next_infeasible:
        ``(m, G+1)``: ``next_infeasible[p][g]`` is the index of the
        first group ``>= g`` that cannot meet its target on pair ``p``
        (``G`` if none) — the delay wall, and its only encoding: a slice
        ``[b, e)`` of pair ``p`` meets delay iff ``e <=
        next_infeasible[p][b]``, the empty slice always.
    """

    arch: InterconnectArchitecture
    die: DieModel
    wld: WireLengthDistribution
    lengths_m: np.ndarray
    counts: np.ndarray
    cum_wires: np.ndarray
    targets: np.ndarray
    routing_capacity: float
    repeater_budget_area: float
    vias_per_wire: int
    via_area: np.ndarray
    pair_pitch: np.ndarray
    repeater_size: np.ndarray
    repeater_unit_area: np.ndarray
    wire_area: np.ndarray
    cum_wire_area: np.ndarray
    stages: np.ndarray
    inserted: np.ndarray
    rep_area: np.ndarray
    cum_rep_area: np.ndarray
    cum_inserted: np.ndarray
    next_infeasible: np.ndarray
    driver_policy: str = "budgeted"

    @property
    def num_pairs(self) -> int:
        """The paper's ``m``."""
        return self.arch.num_pairs

    @property
    def num_groups(self) -> int:
        """Number of wire groups ``G`` in the (coarsened) WLD."""
        return int(self.counts.size)

    @property
    def total_wires(self) -> int:
        """The paper's ``n``."""
        return int(self.cum_wires[-1])

    def capacity(self, pair: int, wires_above: float, repeaters_above: float) -> float:
        """Routing area available in a pair given traffic from above.

        The paper's ``B_j = A_d - A_v,j-1 - A_u,j-1``: usable capacity
        minus via blockage from ``wires_above`` wires (``v`` vias each)
        and ``repeaters_above`` repeaters (one footprint each, following
        Algorithm 5 step 2).  Clamped at zero.
        """
        blocked = (
            repeaters_above + self.vias_per_wire * wires_above
        ) * float(self.via_area[pair])
        return max(0.0, self.routing_capacity - blocked)


def build_tables(
    arch: InterconnectArchitecture,
    die: DieModel,
    wld: WireLengthDistribution,
    target_model: TargetDelayModel,
    utilization: float = 1.0,
    vias_per_wire: int = DEFAULT_VIAS_PER_WIRE,
    pair_capacity_factor: float = 2.0,
    driver_policy: str = "budgeted",
) -> AssignmentTables:
    """Precompute :class:`AssignmentTables` for one rank problem.

    Parameters
    ----------
    arch, die, wld:
        Architecture (top pair first), die model, and WLD in gate
        pitches (rank order).
    target_model:
        Maps physical wire length to target delay.
    utilization:
        Fraction of die area usable for routing per layer-pair, in
        ``(0, 1]``.  The paper uses the full ``A_d`` (1.0).
    vias_per_wire:
        The paper's ``v``.
    pair_capacity_factor:
        Routing area of one layer-pair in units of die area.  A pair is
        *two* orthogonal layers of area ``A_d`` each, and an L-shaped
        wire's H and V segments land on different layers, so the
        physically balanced capacity is ``2 * A_d`` (the default).  Set
        1.0 for the paper's conservative single-``A_d`` reading of
        Algorithms 4-5.
    driver_policy:
        ``"budgeted"`` (default): every wire that meets its target does
        so through size-``s_opt,j`` stages charged to the repeater
        budget, the driver stage included.  ``"free-bare"``: a wire
        whose bare minimum-size driver meets the target passes without
        budget (ablation; breaks the paper's linear ``R`` column).
    """
    if not 0.0 < utilization <= 1.0:
        raise RankComputationError(
            f"utilization must be in (0, 1], got {utilization!r}"
        )
    if pair_capacity_factor <= 0:
        raise RankComputationError(
            f"pair_capacity_factor must be positive, got {pair_capacity_factor!r}"
        )
    if driver_policy not in ("budgeted", "free-bare"):
        raise RankComputationError(
            f"unknown driver policy {driver_policy!r}; "
            "choose 'budgeted' or 'free-bare'"
        )
    if wld.num_groups == 0:
        raise RankComputationError("cannot build assignment tables for an empty WLD")

    num_pairs = arch.num_pairs
    num_groups = wld.num_groups
    device = die.node.device

    lengths_m = die.wire_length(wld.lengths)
    counts = wld.counts.astype(np.int64)
    cum_wires = np.concatenate(([0], np.cumsum(counts)))
    targets = target_model.targets(lengths_m)

    via_area = np.array([pair.via.blocked_area for pair in arch], dtype=float)
    pair_pitch = np.array([pair.wire_pitch for pair in arch], dtype=float)
    repeater_size = np.array(
        [optimal_repeater_size(pair.rc, device) for pair in arch], dtype=float
    )
    repeater_unit_area = np.array(
        [device.repeater_area(size) for size in repeater_size], dtype=float
    )

    wire_area = np.empty((num_pairs, num_groups), dtype=float)
    stages = np.empty((num_pairs, num_groups), dtype=np.int64)
    inserted = np.empty((num_pairs, num_groups), dtype=np.int64)
    rep_area = np.empty((num_pairs, num_groups), dtype=float)
    cum_wire_area = np.empty((num_pairs, num_groups + 1), dtype=float)
    cum_rep_area = np.empty((num_pairs, num_groups + 1), dtype=float)
    cum_inserted = np.empty((num_pairs, num_groups + 1), dtype=float)
    next_infeasible = np.empty((num_pairs, num_groups + 1), dtype=np.int64)

    for p, pair in enumerate(arch):
        wire_area[p] = lengths_m * pair_pitch[p] * counts
        if driver_policy == "free-bare":
            # Free pass: the bare minimum-size driver (size 1, one
            # stage) meets the target without touching the budget.
            bare_pass = wire_delay(pair.rc, device, 1.0, 1, lengths_m) <= targets
        else:
            bare_pass = np.zeros(num_groups, dtype=bool)
        group_stages = min_stages_for_target(
            pair.rc,
            device,
            lengths_m,
            targets,
            size=float(repeater_size[p]),
        )
        stages[p] = np.where(bare_pass, 0, group_stages)
        feasible = stages[p] >= 0
        charged = np.where(stages[p] > 0, stages[p], 0)
        inserted[p] = np.maximum(charged - 1, 0)
        rep_area[p] = counts * charged * repeater_unit_area[p]
        cum_wire_area[p] = np.concatenate(([0.0], np.cumsum(wire_area[p])))
        cum_rep_area[p] = np.concatenate(([0.0], np.cumsum(rep_area[p])))
        cum_inserted[p] = np.concatenate(
            ([0.0], np.cumsum(counts * inserted[p], dtype=float))
        )
        # next_infeasible: suffix-minimum of infeasible indices — the
        # reversed cummin replaces the old backward Python scan.
        blocked_at = np.where(feasible, num_groups, np.arange(num_groups))
        next_infeasible[p][:num_groups] = np.minimum.accumulate(
            blocked_at[::-1]
        )[::-1]
        next_infeasible[p][num_groups] = num_groups

    # The DP kernel packs a prefix's repeater count into an int64 sort
    # key (repro.core.dp_numpy._close_pair), so every count it can reach
    # must be held exactly.  The counts are integers by construction
    # (int64 wires times int64 repeaters); a float holds them exactly
    # below 2^53.  A prefix takes one slice of each pair, so the pairs'
    # totals bound them all.
    reach = cum_inserted[:, -1].sum()
    if not reach < 2.0**53:
        raise RankComputationError(
            f"inserted repeater counts reach {reach:.4g}: not below 2^53, "
            "which the DP kernel needs to count them exactly"
        )

    return AssignmentTables(
        arch=arch,
        die=die,
        wld=wld,
        lengths_m=lengths_m,
        counts=counts,
        cum_wires=cum_wires,
        targets=targets,
        routing_capacity=utilization * pair_capacity_factor * die.die_area,
        repeater_budget_area=die.repeater_area,
        vias_per_wire=vias_per_wire,
        via_area=via_area,
        pair_pitch=pair_pitch,
        repeater_size=repeater_size,
        repeater_unit_area=repeater_unit_area,
        wire_area=wire_area,
        cum_wire_area=cum_wire_area,
        stages=stages,
        inserted=inserted,
        rep_area=rep_area,
        cum_rep_area=cum_rep_area,
        cum_inserted=cum_inserted,
        next_infeasible=next_infeasible,
        driver_policy=driver_policy,
    )
