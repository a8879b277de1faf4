"""The M'' packer one wire group per Python iteration: the reference
that :mod:`repro.assign.greedy_assign`'s sliced NumPy walks must match
bit for bit.

These are the per-group loops the product ran before its walks were
vectorized, kept verbatim in their arithmetic: every float comes from
Python's own ``+``, ``-``, ``*`` and ``//`` in the same order, so any
difference from the product is a real divergence, not rounding noise.
Nothing here is memoized.
"""

from __future__ import annotations


def max_assignable(
    capacity, area_used, per_wire_area, via_footprint, wires_remaining, group_remaining
):
    """Algorithm 5's check-before-assign loop in closed form."""
    budget = capacity - area_used - wires_remaining * via_footprint
    slope = per_wire_area - via_footprint
    if slope <= 0:
        return group_remaining if budget >= slope else 0
    fit = int(budget // slope)
    return max(0, min(group_remaining, fit))


def fill_pair(tables, pair, capacity, start_group, cursor):
    """Pack one pair greedily from ``cursor``, one group per iteration.

    Returns ``((group, group_remaining, total_remaining), area_used)``.
    """
    group, group_remaining, total_remaining = cursor
    via_footprint = tables.vias_per_wire * float(tables.via_area[pair])
    area_used = 0.0
    while total_remaining > 0:
        per_wire_area = float(tables.lengths_m[group]) * float(
            tables.pair_pitch[pair]
        )
        fit = max_assignable(
            capacity,
            area_used,
            per_wire_area,
            via_footprint,
            total_remaining,
            group_remaining,
        )
        if fit == 0:
            break
        area_used += fit * per_wire_area
        total_remaining -= fit
        group_remaining -= fit
        if group_remaining == 0:
            group -= 1
            if group < start_group:
                assert total_remaining == 0
                break
            group_remaining = int(tables.counts[group])
    return (group, group_remaining, total_remaining), area_used


def initial_cursor(tables, start_group):
    group = tables.num_groups - 1
    return (
        group,
        int(tables.counts[group]),
        int(tables.cum_wires[tables.num_groups] - tables.cum_wires[start_group]),
    )


def pack(tables, start_group, top_pair, wires_above, repeaters_above, top_pair_leftover=None):
    """``(pair, wires, area_used)`` per filled pair when the suffix packs,
    else ``None`` (the range checks are the product's concern)."""
    if start_group == tables.num_groups:
        return ()
    if top_pair == tables.num_pairs:
        return None
    cursor = initial_cursor(tables, start_group)
    fills = []
    for pair in range(tables.num_pairs - 1, top_pair - 1, -1):
        if cursor[2] == 0:
            break
        if pair == top_pair and top_pair_leftover is not None:
            capacity = top_pair_leftover
        else:
            capacity = tables.capacity(pair, wires_above, repeaters_above)
        if capacity <= 0:
            continue
        total = cursor[2]
        cursor, area = fill_pair(tables, pair, capacity, start_group, cursor)
        fills.append((pair, total - cursor[2], area))
    return tuple(fills) if cursor[2] == 0 else None


def required_leftover(tables, start_group, top_pair, wires_above, repeaters_above):
    """The top pair's leftover threshold, one group per iteration."""
    if start_group == tables.num_groups:
        return 0.0
    cursor = initial_cursor(tables, start_group)
    for pair in range(tables.num_pairs - 1, top_pair, -1):
        if cursor[2] == 0:
            return 0.0
        capacity = tables.capacity(pair, wires_above, repeaters_above)
        if capacity <= 0:
            continue
        cursor, _ = fill_pair(tables, pair, capacity, start_group, cursor)
    group, group_remaining, total_remaining = cursor
    if total_remaining == 0:
        return 0.0
    via_footprint = tables.vias_per_wire * float(tables.via_area[top_pair])
    area_used = 0.0
    required = 0.0
    while total_remaining > 0:
        per_wire_area = float(tables.lengths_m[group]) * float(
            tables.pair_pitch[top_pair]
        )
        slope = per_wire_area - via_footprint
        if slope <= 0:
            bind = area_used + per_wire_area + (total_remaining - 1) * via_footprint
        else:
            bind = (
                area_used
                + total_remaining * via_footprint
                + group_remaining * slope
            )
        if bind > required:
            required = bind
        area_used += group_remaining * per_wire_area
        total_remaining -= group_remaining
        group -= 1
        if group < start_group:
            assert total_remaining == 0
            break
        group_remaining = int(tables.counts[group])
    return required
