"""The M'' oracle: bottom-up packing without delay (paper Algorithm 5).

``pack_suffix`` decides whether the remaining (shorter) wires of the WLD
fit into the remaining (lower) layer-pairs when delay requirements are
ignored.  Packing is greedy bottom-up — shortest wires into the lowest
pair first — which the paper's Lemma 1 proves optimal: the lowest pairs
see the least via blockage from the packing itself, and moving any wire
downward only relaxes the constraints.

Blockage bookkeeping follows Algorithm 5 exactly:

* the capacity of pair ``q`` is reduced by the via footprints of all
  prefix wires and repeaters living *above* the packed region
  (``B_q = A_d - ((z_r1 + z_r2) + v * i) * v_a``), and
* while packing pair ``q``, area is *reserved* for the vias of suffix
  wires not yet assigned — they will necessarily land above ``q`` and
  punch through it (``A_v,q = (p - i) * v * v_a``).

The per-wire while-loop of Algorithm 5 is replaced by a closed-form
"how many wires of this group still fit" computation per group, which
is exact because all wires of a group share one length.

A pair is filled in NumPy slices of whole groups (the first slice holds
:data:`_FIRST_SLICE` groups, each further one twice as many), and only
the first group that does not fit whole goes through the scalar
:func:`_max_assignable`.  The slices are bit-identical to a per-group
loop of the same formula, because every float they compute comes from
the loop's own IEEE operations in the loop's order:

* the per-wire area is ``lengths_m * pitch`` and a group's area is
  ``count * per_wire``, the int count converted exactly (counts stay far
  below 2^53);
* the running ``area_used`` is ``np.add.accumulate`` over the group
  areas with the carried value prepended: an accumulate adds
  sequentially, so each prefix is the loop's running float sum (a
  pairwise ``np.sum`` would not be);
* the budget ``(capacity - area_used) - remaining * via_footprint`` and
  the slope keep the loop's operand order, and ``np.floor_divide``
  computes Python's float ``//`` (both are CPython's ``divmod``-based
  floor), so a group fits whole in a slice exactly when the loop would
  have assigned all of it.

The walk of the pairs below the top pair is shared by
:func:`pack_suffix` and :func:`pack_required_leftover`: the rank scan
asks for the threshold and the packing at the same
``(start_group, top_pair, wires_above, repeaters_above)``, so the last
lower walk is kept in a one-entry memo.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..errors import AssignmentError
from .tables import AssignmentTables

#: Groups in the first slice of a pair walk; each further slice of the
#: same walk is twice as long, so a short walk costs one slice.
_FIRST_SLICE = 16

#: Packing cursor at the next unassigned wire:
#: ``(group, wires left in that group, wires left in total)``.
Cursor = Tuple[int, int, int]

#: The last lower walk, ``(weakref to the tables, key, (cursor, fills))``.
#: It is replaced as one tuple, never updated in place, so a solver
#: thread that reads it always sees one consistent entry.
_last_lower: Optional[tuple] = None


@dataclass(frozen=True)
class PairFill:
    """Suffix wires packed into one layer-pair by the M'' packer.

    Attributes
    ----------
    pair:
        0-based layer-pair index (0 = topmost).
    wires:
        Suffix wires placed in the pair.
    area_used:
        Routing area they consume, square metres.
    """

    pair: int
    wires: int
    area_used: float


def _max_assignable(
    capacity: float,
    area_used: float,
    per_wire_area: float,
    via_footprint: float,
    wires_remaining: int,
    group_remaining: int,
) -> int:
    """How many wires of the current group fit in the current pair.

    Mirrors Algorithm 5's check-before-assign loop: wire ``x`` (1-based
    within this computation) is assignable iff

        area_used + x * per_wire_area
        + (wires_remaining - x) * via_footprint  <=  capacity

    and the loop stops at the first failure.  The left side is monotone
    in ``x`` with slope ``per_wire_area - via_footprint``; both slope
    signs reduce to closed forms.
    """
    budget = capacity - area_used - wires_remaining * via_footprint
    slope = per_wire_area - via_footprint
    if slope <= 0:
        # Each assignment frees net area: if the first wire fits, all of
        # the group's remainder does; otherwise the loop stops at once.
        first_fits = budget >= slope  # x = 1 term
        return group_remaining if first_fits else 0
    fit = int(budget // slope)
    return max(0, min(group_remaining, fit))


def pack_suffix_detail(
    tables: AssignmentTables,
    start_group: int,
    top_pair: int,
    wires_above: int,
    repeaters_above: float,
    top_pair_leftover: Optional[float] = None,
) -> Optional[List[PairFill]]:
    """Like :func:`pack_suffix` but returning the placement.

    Returns the per-pair fills (bottom pair first — the packing order)
    when the suffix fits, or ``None`` when it does not.  Used by
    assignment reports; the solvers call the boolean
    :func:`pack_suffix` on the hot path.
    """
    fills = _pack(
        tables,
        start_group,
        top_pair,
        wires_above,
        repeaters_above,
        top_pair_leftover,
    )
    if fills is None:
        return None
    return [
        PairFill(pair=pair, wires=wires, area_used=area)
        for pair, wires, area in fills
        if wires
    ]


def pack_suffix(
    tables: AssignmentTables,
    start_group: int,
    top_pair: int,
    wires_above: int,
    repeaters_above: float,
    top_pair_leftover: Optional[float] = None,
) -> bool:
    """Can groups ``[start_group, G)`` pack into pairs ``[top_pair, m)``?

    Parameters
    ----------
    tables:
        Precomputed assignment tables.
    start_group:
        First unassigned group (rank order); everything from here down
        is packed ignoring delay.
    top_pair:
        Highest pair available to the packing (0 = topmost).  Pairs
        above it hold the delay-meeting prefix.
    wires_above:
        Prefix wires assigned to pairs above ``top_pair`` *plus* any
        delay wires already inside ``top_pair`` when
        ``top_pair_leftover`` is given do NOT belong here — pass only
        wires whose vias cross the packed pairs from strictly above
        (for pair ``q > top_pair`` the caller's prefix count is applied
        uniformly, matching Algorithm 5's single ``i``).
    repeaters_above:
        Repeaters inserted in the prefix (each blocks one via footprint
        per packed pair).
    top_pair_leftover:
        If given, the remaining capacity of ``top_pair`` after its
        delay-meeting block (already blockage-adjusted); otherwise the
        pair's full blockage-adjusted capacity is used.

    Returns
    -------
    bool
        True iff every suffix wire is assigned — the value of the
        paper's ``M''``.
    """
    return (
        _pack(
            tables,
            start_group,
            top_pair,
            wires_above,
            repeaters_above,
            top_pair_leftover,
        )
        is not None
    )


def _validate_range(
    tables: AssignmentTables, start_group: int, top_pair: int
) -> None:
    if not 0 <= start_group <= tables.num_groups:
        raise AssignmentError(
            f"start_group {start_group} out of range for "
            f"{tables.num_groups} groups"
        )
    if not 0 <= top_pair <= tables.num_pairs:
        raise AssignmentError(
            f"top_pair {top_pair} out of range for {tables.num_pairs} pairs"
        )


def _walk(tables: AssignmentTables, start_group: int, group: int, count: int):
    """Groups ``group, group - 1, ..., start_group`` in packing order.

    Returns their wire counts, the first replaced by ``count`` (the
    wires of ``group`` still unassigned), and their per-wire lengths.
    """
    counts = tables.counts[start_group:group + 1][::-1].copy()
    counts[0] = count
    return counts, tables.lengths_m[start_group:group + 1][::-1]


def _fill_pair(
    tables: AssignmentTables,
    pair: int,
    capacity: float,
    start_group: int,
    cursor: Cursor,
) -> Tuple[Cursor, float]:
    """Pack one pair greedily from ``cursor``.

    Returns the advanced cursor and the routing area the pair's new
    wires use (its wire count is the drop in the cursor's total).
    """
    group, group_remaining, total_remaining = cursor
    pitch = float(tables.pair_pitch[pair])
    via_footprint = tables.vias_per_wire * float(tables.via_area[pair])
    area_used = 0.0
    size = _FIRST_SLICE
    while total_remaining > 0:
        counts, lengths = _walk(
            tables, max(start_group, group + 1 - size), group, group_remaining
        )
        n = len(counts)
        per_wire = lengths * pitch
        # Running sums before each group and after the last, the loop's
        # carried value first.
        area = np.add.accumulate(
            np.concatenate(((area_used,), counts * per_wire))
        )
        remaining = np.subtract.accumulate(
            np.concatenate(((total_remaining,), counts))
        )
        budget = capacity - area[:n] - remaining[:n] * via_footprint
        slope = per_wire - via_footprint
        rising = slope > 0
        quotient = np.floor_divide(budget, slope, out=np.zeros(n), where=rising)
        whole = np.where(rising, quotient >= counts, budget >= slope)
        k = int(whole.argmin())
        if whole[k]:
            k = n
        if k:
            area_used = float(area[k])
            total_remaining = int(remaining[k])
            group -= k
        if k == n:
            if total_remaining == 0:
                group_remaining = 0
                break  # walked past start_group
            group_remaining = int(tables.counts[group])
            size *= 2
            continue
        # Group k fits only in part, or not at all: the loop's closed form.
        group_remaining = int(counts[k])
        per_wire_area = float(per_wire[k])
        fit = _max_assignable(
            capacity,
            area_used,
            per_wire_area,
            via_footprint,
            total_remaining,
            group_remaining,
        )
        if fit == 0:
            break  # pair is full; continue in the next pair up
        area_used += fit * per_wire_area
        total_remaining -= fit
        group_remaining -= fit
    return (group, group_remaining, total_remaining), area_used


def _pack_lower(
    tables: AssignmentTables,
    start_group: int,
    top_pair: int,
    wires_above: int,
    repeaters_above: float,
):
    """Pack groups ``[start_group, G)`` into the pairs below ``top_pair``.

    Returns ``(cursor, fills)``: the cursor where the top pair takes
    over, and one ``(pair, wires, area_used)`` per pair filled, bottom
    pair first.  The last result is memoized under the tables (held
    weakly) and the arguments.
    """
    global _last_lower
    key = (start_group, top_pair, wires_above, repeaters_above)
    last = _last_lower
    if last is not None and last[0]() is tables and last[1] == key:
        return last[2]
    group = tables.num_groups - 1
    cursor = (
        group,
        int(tables.counts[group]),
        int(tables.cum_wires[tables.num_groups] - tables.cum_wires[start_group]),
    )
    fills = []
    for pair in range(tables.num_pairs - 1, top_pair, -1):
        if cursor[2] == 0:
            break
        capacity = tables.capacity(pair, wires_above, repeaters_above)
        if capacity <= 0:
            continue
        total = cursor[2]
        cursor, area = _fill_pair(tables, pair, capacity, start_group, cursor)
        fills.append((pair, total - cursor[2], area))
    result = (cursor, tuple(fills))
    _last_lower = (weakref.ref(tables), key, result)
    return result


def _pack(
    tables: AssignmentTables,
    start_group: int,
    top_pair: int,
    wires_above: int,
    repeaters_above: float,
    top_pair_leftover: Optional[float],
):
    """Algorithm 5 engine shared by the boolean and detailed fronts:
    the ``(pair, wires, area_used)`` fills when the suffix packs, else
    ``None``."""
    _validate_range(tables, start_group, top_pair)
    if start_group == tables.num_groups:
        return ()  # nothing left to pack
    if top_pair == tables.num_pairs:
        return None  # wires remain but no pairs remain

    cursor, fills = _pack_lower(
        tables, start_group, top_pair, wires_above, repeaters_above
    )
    total = cursor[2]
    if total == 0:
        return fills
    if top_pair_leftover is not None:
        capacity = top_pair_leftover
    else:
        capacity = tables.capacity(top_pair, wires_above, repeaters_above)
    if capacity <= 0:
        return None
    cursor, area = _fill_pair(tables, top_pair, capacity, start_group, cursor)
    if cursor[2]:
        return None
    return fills + ((top_pair, total, area),)


def pack_required_leftover(
    tables: AssignmentTables,
    start_group: int,
    top_pair: int,
    wires_above: int,
    repeaters_above: float,
) -> float:
    """Minimal ``top_pair_leftover`` that makes :func:`pack_suffix` succeed.

    The packing of every pair *below* ``top_pair`` uses the pairs' own
    blockage-adjusted capacities and never sees the leftover, so for a
    fixed ``(start_group, top_pair, wires_above, repeaters_above)`` state
    the suffix feasibility is a monotone threshold in the top pair's
    leftover capacity.  This computes the threshold in one pass: pack
    the lower pairs exactly as :func:`pack_suffix` would, then take the
    binding constraint of Algorithm 5's check-before-assign loop over
    the wires that remain for the top pair.

    Returns ``0.0`` when the suffix packs without the top pair at all.
    The DP solver memoizes this per ``(start_group, repeaters_above)``
    state to prune repeated failing pack checks (the threshold is also
    monotone non-decreasing in ``repeaters_above``: more prefix
    repeaters shrink every lower pair, leaving more for the top pair).

    Callers comparing a candidate leftover against the threshold should
    leave a small relative margin and fall back to :func:`pack_suffix`
    near the boundary: the closed-form constraint and the greedy loop
    can disagree by floating-point ulps at exact ties.
    """
    _validate_range(tables, start_group, top_pair)
    if start_group == tables.num_groups:
        return 0.0
    if top_pair >= tables.num_pairs:
        raise AssignmentError(
            f"top_pair {top_pair} out of range for {tables.num_pairs} pairs"
        )

    (group, group_remaining, total_remaining), _ = _pack_lower(
        tables, start_group, top_pair, wires_above, repeaters_above
    )
    if total_remaining == 0:
        return 0.0

    # Required capacity of the top pair: for each group, the binding
    # instant of Algorithm 5's loop — the x-th wire of the group needs
    #   area_used + x * per_wire_area + (remaining - x) * via_footprint
    # of capacity.  The left side is linear in x, so only the group's
    # first wire (slope <= 0) or last wire (slope > 0) can bind.  The
    # running sums are the loop's, as in _fill_pair.
    via_footprint = tables.vias_per_wire * float(tables.via_area[top_pair])
    counts, lengths = _walk(tables, start_group, group, group_remaining)
    per_wire = lengths * float(tables.pair_pitch[top_pair])
    n = len(counts)
    area = np.add.accumulate(np.concatenate(((0.0,), counts * per_wire)))[:n]
    remaining = np.subtract.accumulate(
        np.concatenate(((total_remaining,), counts))
    )[:n]
    slope = per_wire - via_footprint
    bind = np.where(
        slope <= 0,
        area + per_wire + (remaining - 1) * via_footprint,
        area + remaining * via_footprint + counts * slope,
    )
    required = float(bind.max())
    return required if required > 0.0 else 0.0
