"""Independent verification of witnessed rank solutions.

``compute_rank(..., collect_witness=True)`` returns a constructive
proof of the reported rank; :func:`verify_witness` re-checks that proof
against the raw tables with none of the DP's machinery — a downstream
user can trust a result without trusting the solver.  Checks:

1. the witness covers pairs top-down with contiguous group slices
   starting at group 0;
2. every slice meets its delay targets (stage feasibility) on its pair;
3. wire area fits each pair's via-blockage-adjusted capacity;
4. total repeater area fits the physical budget;
5. the claimed rank equals the wires covered;
6. the remaining wires pack below (the M'' oracle).

Raises :class:`~repro.errors.RankComputationError` on the first
violation; returns quietly on success.
"""

from __future__ import annotations

from ..assign.greedy_assign import pack_suffix
from ..assign.tables import AssignmentTables
from ..errors import RankComputationError
from .rank import RankResult


def verify_witness(
    tables: AssignmentTables,
    result: RankResult,
) -> None:
    """Re-check a witnessed rank result against first principles.

    Parameters
    ----------
    tables:
        The assignment tables the result was computed on (same
        coarsening!).
    result:
        A result carrying a witness.

    Area and budget checks allow a relative floating-point slack of
    1e-9.
    """
    if result.witness is None:
        raise RankComputationError("result carries no witness to verify")
    if not result.fits:
        raise RankComputationError("a non-fitting result cannot be witnessed")

    cursor = 0
    last_pair = -1
    wires_above = 0
    repeaters_above = 0.0
    rep_area_total = 0.0
    top_pair = 0
    leftover = tables.capacity(0, 0, 0)

    for segment in result.witness:
        if segment.pair <= last_pair:
            raise RankComputationError(
                f"witness pairs not strictly descending the stack: "
                f"{segment.pair} after {last_pair}"
            )
        if segment.start_group != cursor:
            raise RankComputationError(
                f"witness groups not contiguous: pair {segment.pair} "
                f"starts at {segment.start_group}, expected {cursor}"
            )
        if segment.end_group < segment.start_group:
            raise RankComputationError("witness segment with negative extent")

        # delay feasibility of every group in the slice on this pair
        if tables.next_infeasible[segment.pair][segment.start_group] < segment.end_group:
            raise RankComputationError(
                f"witness slice [{segment.start_group}, {segment.end_group}) "
                f"contains a group that cannot meet delay on pair "
                f"{segment.pair}"
            )

        capacity = tables.capacity(segment.pair, wires_above, repeaters_above)
        area = float(
            tables.cum_wire_area[segment.pair][segment.end_group]
            - tables.cum_wire_area[segment.pair][segment.start_group]
        )
        if area > capacity * (1 + 1e-9):
            raise RankComputationError(
                f"witness slice overflows pair {segment.pair}: "
                f"{area:.4g} > {capacity:.4g}"
            )

        rep_area_total += float(
            tables.cum_rep_area[segment.pair][segment.end_group]
            - tables.cum_rep_area[segment.pair][segment.start_group]
        )

        wires_above = int(tables.cum_wires[segment.end_group])
        repeaters_above += segment.repeaters
        cursor = segment.end_group
        last_pair = segment.pair
        top_pair = segment.pair
        leftover = capacity - area

    budget = tables.repeater_budget_area
    if rep_area_total > budget * (1 + 1e-9):
        raise RankComputationError(
            f"witness exceeds the repeater budget: "
            f"{rep_area_total:.6g} > {budget:.6g}"
        )

    covered = int(tables.cum_wires[cursor])
    if covered != result.rank:
        raise RankComputationError(
            f"witness covers {covered} wires but the result claims rank "
            f"{result.rank}"
        )

    if not pack_suffix(
        tables,
        cursor,
        top_pair,
        wires_above,
        repeaters_above,
        top_pair_leftover=leftover,
    ):
        raise RankComputationError(
            "the witness's remaining wires do not pack into the stack"
        )
