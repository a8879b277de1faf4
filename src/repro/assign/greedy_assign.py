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

:func:`pack_suffix` and :func:`pack_required_leftover` answer one query
or many per call: the start group, wires above, repeaters above and the
top pair's leftover are scalars, or NumPy arrays with one entry per
query (scalars apply to every query), with one top pair per call.

A pair is filled in windows of whole groups counted down from the
cursor: the first window holds :data:`_FIRST_SLICE` groups and each
further one twice as many.  Only the first group that does not fit
whole is split, by the closed form.  One query walks 1-D slices
(:func:`_fill_pair`).  Many queries walk a rows × groups window
together (:func:`_fill_rows`): row ``r``'s column ``j`` is group
``g_r - j`` (columns past the row's start group hold no wires), all
rows share the window schedule, and rows are split so that a window
holds about :data:`_BLOCK` elements.  A one-query call keeps the slices
because a 2-D window costs twice the NumPy calls of a slice; through
the windows, a rank solve of a 20k-gate problem took about 1.2x as
long.  Both walks are bit-identical to a per-group loop of the same
formula, because every float they compute comes from the loop's own
IEEE operations in the loop's order:

* the per-wire area is ``lengths_m * pitch`` and a group's area is
  ``count * per_wire``, the int count converted exactly (counts stay far
  below 2^53);
* the running ``area_used`` is ``np.add.accumulate`` (along each row)
  over the group areas with the carried value in front: an accumulate
  adds sequentially, so each prefix is the loop's running float sum (a
  pairwise ``np.sum`` would not be), and the last one carries into the
  next window;
* the budget ``(capacity - area_used) - remaining * via_footprint`` and
  the slope keep the loop's operand order, and ``np.floor_divide``
  computes Python's float ``//`` (both are CPython's ``divmod``-based
  floor), so a group fits whole in a window exactly when the loop would
  have assigned all of it;
* rows never mix: every operation is elementwise or runs along one row,
  so a row's floats do not depend on the other rows of its call, on how
  the rows are split, or on where a window ends.

The walk of the pairs below the top pair is shared by
:func:`pack_suffix` and :func:`pack_required_leftover`: the rank scan
asks for a level's threshold and then packs at the same repeaters
above, and the budget curve often does for all its levels, so the last
lower walk is kept in a one-entry memo.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..errors import AssignmentError
from .tables import AssignmentTables

#: Groups in the first window of a pair walk; each further window of the
#: same walk is twice as wide, so a short walk costs one window.
_FIRST_SLICE = 16

#: Elements of a window of many queries: rows are split so that each
#: float64 temporary stays near 128 KB, inside a 2 MB L2 cache.
_BLOCK = 1 << 14

#: Packing cursor at the next unassigned wire:
#: ``(group, wires left in that group, wires left in total)``.
Cursor = Tuple[int, int, int]

#: The cursors of many queries, one array per field of :data:`Cursor`.
Cursors = Tuple[np.ndarray, np.ndarray, np.ndarray]

#: The last lower walk, ``(weakref to the tables, key, result)``: a
#: query's ``(cursor, fills)``, or the cursors of many queries (their key
#: starts with ``"rows"``).  It is replaced as one tuple, never updated
#: in place, so a solver thread that reads it always sees one consistent
#: entry.
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
    start_group,
    top_pair: int,
    wires_above,
    repeaters_above,
    top_pair_leftover=None,
):
    """Can groups ``[start_group, G)`` pack into pairs ``[top_pair, m)``?

    Every argument but ``tables`` and ``top_pair`` is a scalar or a
    NumPy array with one entry per query.

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
    bool or numpy.ndarray
        True iff every suffix wire is assigned — the value of the
        paper's ``M''`` — or a bool array of it, one per query.
    """
    if _many(start_group, wires_above, repeaters_above, top_pair_leftover):
        start, *rows = _rows(start_group, wires_above, repeaters_above, top_pair_leftover)
        return _pack_rows(tables, start, top_pair, *rows)
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
    start_group,
    top_pair: int,
    wires_above,
    repeaters_above,
):
    """Minimal ``top_pair_leftover`` that makes :func:`pack_suffix` succeed.

    The packing of every pair *below* ``top_pair`` uses the pairs' own
    blockage-adjusted capacities and never sees the leftover, so for a
    fixed ``(start_group, top_pair, wires_above, repeaters_above)`` state
    the suffix feasibility is a monotone threshold in the top pair's
    leftover capacity.  This computes the threshold in one pass: pack
    the lower pairs exactly as :func:`pack_suffix` would, then take the
    binding constraint of Algorithm 5's check-before-assign loop over
    the wires that remain for the top pair.

    Queries are scalars or arrays, as for :func:`pack_suffix`; many
    queries give a float array, one threshold per query.

    Returns ``0.0`` when the suffix packs without the top pair at all.
    The threshold is also monotone non-decreasing in
    ``repeaters_above`` (more prefix repeaters shrink every lower pair,
    leaving more for the top pair), so the rank scan prunes a level's
    candidates with the threshold at its smallest repeater count, and
    the scalar test oracle memoizes it per ``(start_group,
    repeaters_above)`` state.

    Callers comparing a candidate leftover against the threshold should
    leave a small relative margin and fall back to :func:`pack_suffix`
    near the boundary: the closed-form constraint and the greedy loop
    can disagree by floating-point ulps at exact ties.
    """
    if _many(start_group, wires_above, repeaters_above):
        start, wires, repeaters, _ = _rows(start_group, wires_above, repeaters_above)
        return _required_rows(tables, start, top_pair, wires, repeaters)
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


# ---------------------------------------------------------------------------
# Many queries per call
# ---------------------------------------------------------------------------


def _many(*values) -> bool:
    """Whether a call carries arrays of queries rather than one query."""
    return any(getattr(value, "ndim", 0) for value in values)


def _rows(start_group, wires_above, repeaters_above, top_pair_leftover=None):
    """The queries of a call as equal-length 1-D arrays ``(start, wires,
    repeaters, leftover)``: start groups as int64, repeaters and
    leftovers as float (``leftover`` stays ``None`` when not given)."""
    arrays = [
        np.asarray(start_group, dtype=np.int64),
        np.asarray(wires_above),
        np.asarray(repeaters_above, dtype=float),
    ]
    if top_pair_leftover is not None:
        arrays.append(np.asarray(top_pair_leftover, dtype=float))
    rows = list(np.broadcast_arrays(*arrays))
    if rows[0].ndim != 1:
        raise AssignmentError("packer queries must be scalars or 1-D arrays")
    if top_pair_leftover is None:
        rows.append(None)
    return rows


def _capacities(tables: AssignmentTables, pair: int, wires_above, repeaters_above):
    """:meth:`AssignmentTables.capacity` of each query, by the same IEEE
    operations."""
    blocked = (repeaters_above + tables.vias_per_wire * wires_above) * float(
        tables.via_area[pair]
    )
    return np.maximum(0.0, tables.routing_capacity - blocked)


def _validate_rows(tables: AssignmentTables, start: np.ndarray, top_pair: int) -> None:
    if len(start):
        _validate_range(tables, int(start.min()), top_pair)
        _validate_range(tables, int(start.max()), top_pair)
    else:
        _validate_range(tables, 0, top_pair)


def _window(tables: AssignmentTables, start, group, carry, width: int):
    """The next ``width`` groups of each row's walk, in packing order.

    Returns their wire counts (the first replaced by ``carry``, the wires
    of ``group`` still unassigned), their per-wire lengths, and a mask of
    the columns past the row's start group, whose counts are 0.
    """
    groups = group[:, None] - np.arange(width)
    past = groups < start[:, None]
    counts = tables.counts.take(groups, mode="clip")
    counts[:, 0] = carry
    counts[past] = 0
    return counts, tables.lengths_m.take(groups, mode="clip"), past


def _fill_live(
    tables: AssignmentTables,
    pair: int,
    capacity: np.ndarray,
    start: np.ndarray,
    cursor: Cursors,
) -> Cursors:
    """The cursors after :func:`_fill_rows` on the rows with wires left
    and a positive capacity (the loop skips a pair without room); the
    other rows keep theirs."""
    live = np.flatnonzero((cursor[2] > 0) & (capacity > 0))
    if len(live) == len(start):
        return _fill_rows(tables, pair, capacity, start, cursor)[0]
    cursor = tuple(a.copy() for a in cursor)
    if len(live):
        moved, _ = _fill_rows(
            tables, pair, capacity[live], start[live], tuple(a[live] for a in cursor)
        )
        for a, b in zip(cursor, moved):
            a[live] = b
    return cursor


def _fill_rows(
    tables: AssignmentTables,
    pair: int,
    capacity: np.ndarray,
    start: np.ndarray,
    cursor: Cursors,
) -> Tuple[Cursors, np.ndarray]:
    """Pack each row greedily into one pair from its cursor.

    ``capacity``, ``start`` and the cursor hold one entry per row, and
    every row has wires left.  Returns the advanced cursors (a walk that
    packed every wire ends at ``(start - 1, 0, 0)``) and the routing
    area each row's new wires use (its wire count is the drop in its
    cursor's total).
    """
    rows = len(start)
    pitch = float(tables.pair_pitch[pair])
    via_footprint = tables.vias_per_wire * float(tables.via_area[pair])
    pending = [(_FIRST_SLICE, np.arange(rows), [*cursor, np.zeros(rows), capacity, start])]
    ended = []  # (rows, group, carry, total, area_used) of walks that stopped
    while pending:
        size, part, walk = pending.pop()
        width = min(size, int((walk[0] - walk[5]).max()) + 1)
        split = max(1, _BLOCK // width)
        if len(part) > split:
            pending += [
                (size, part[i:i + split], [a[i:i + split] for a in walk])
                for i in range(0, len(part), split)
            ]
            continue
        go, *walk[:4] = _fill_window(tables, pitch, via_footprint, width, *walk)
        on = np.flatnonzero(go)
        if len(on) == len(part):
            pending.append((2 * size, part, walk))
        elif not len(on):
            ended.append((part, *walk[:4]))
        else:
            done = np.flatnonzero(~go)
            ended.append((part[done], *(a[done] for a in walk[:4])))
            pending.append((2 * size, part[on], [a[on] for a in walk]))
    if len(ended) == 1:
        _, *state = ended[0]  # every row, in order
    else:
        state = [np.empty(rows, dtype=a.dtype) for a in ended[0][1:]]
        for part, *values in ended:
            for a, v in zip(state, values):
                a[part] = v
    # A window wider than a row's walk carries its group past the start.
    state[0] = np.maximum(state[0], start - 1)
    return tuple(state[:3]), state[3]


def _fill_window(tables, pitch, via_footprint, width, group, carry, total, area_used, capacity, start):
    """Walk each row over its next ``width`` groups in one pair.

    Every argument after ``width`` holds one entry per row.  Returns
    ``(go, group, carry, total, area_used)``: the advanced walk, and
    whether the loop would go on in this pair.
    """
    n = len(group)
    # One column more than the window: the group after it, where a row
    # that fits the whole window continues.
    counts, lengths, past = _window(tables, start, group, carry, width + 1)
    per_wire = lengths * pitch
    # Running sums before each group, the loop's carried value first.
    area = np.empty((n, width + 2))
    area[:, 0] = area_used
    np.multiply(counts, per_wire, out=area[:, 1:])
    np.add.accumulate(area, axis=1, out=area)
    remaining = np.empty((n, width + 2), dtype=np.int64)
    remaining[:, 0] = total
    remaining[:, 1:] = counts
    np.subtract.accumulate(remaining, axis=1, out=remaining)
    budget = capacity[:, None] - area[:, :-1]
    budget -= remaining[:, :-1] * via_footprint
    slope = per_wire - via_footprint
    rising = slope > 0
    quotient = np.zeros((n, width + 1))
    np.floor_divide(budget, slope, out=quotient, where=rising)
    whole = np.where(rising, quotient >= counts, budget >= slope)
    whole |= past
    whole[:, width] = False  # not part of the window
    # Rows that fit the window whole go on from the group after it.
    total_next = remaining[:, width]
    walk = [group - width, counts[:, width], total_next, area[:, width]]
    go = total_next > 0
    k = whole.argmin(axis=1)  # first group that does not fit whole
    stop = np.flatnonzero(k < width)
    if len(stop):
        walk = [a.copy() for a in walk]
        go = go.copy()
    for r, j in zip(stop.tolist(), k[stop].tolist()):
        # Group j fits only in part: the loop's closed form takes a
        # rising group's floored quotient (below its count, as it is not
        # whole) and none of a falling one (its first wire does not fit).
        fit = max(int(quotient[r, j]), 0)
        per = float(per_wire[r, j])
        used = float(area[r, j]) + fit * per
        left = int(remaining[r, j]) - fit
        walk[0][r] = group[r] - j
        walk[1][r] = int(counts[r, j]) - fit
        walk[2][r] = left
        walk[3][r] = used
        # After a part the loop asks the group again, and goes on only
        # if a rounding residue of it fits too.
        budget_j = (float(capacity[r]) - used) - left * via_footprint
        go[r] = fit > 0 and budget_j // (per - via_footprint) > 0
    return (go, *walk)


def _pack_lower_rows(
    tables: AssignmentTables,
    start: np.ndarray,
    top_pair: int,
    wires_above: np.ndarray,
    repeaters_above: np.ndarray,
) -> Cursors:
    """:func:`_pack_lower` of each row: the cursors where the top pair
    takes over, memoized like it."""
    global _last_lower
    key = (
        "rows",
        top_pair,
        start.tobytes(),
        wires_above.dtype.str,
        wires_above.tobytes(),
        repeaters_above.tobytes(),
    )
    last = _last_lower
    if last is not None and last[0]() is tables and last[1] == key:
        return last[2]
    group = tables.num_groups - 1
    rows = len(start)
    cursor = (
        np.full(rows, group),
        np.full(rows, tables.counts[group]),
        tables.cum_wires[tables.num_groups] - tables.cum_wires[start],
    )
    for pair in range(tables.num_pairs - 1, top_pair, -1):
        if not np.count_nonzero(cursor[2]):
            break
        capacity = _capacities(tables, pair, wires_above, repeaters_above)
        cursor = _fill_live(tables, pair, capacity, start, cursor)
    _last_lower = (weakref.ref(tables), key, cursor)
    return cursor


def _pack_rows(
    tables: AssignmentTables,
    start: np.ndarray,
    top_pair: int,
    wires_above: np.ndarray,
    repeaters_above: np.ndarray,
    top_pair_leftover: Optional[np.ndarray],
):
    """:func:`pack_suffix` of each row: whether its suffix packs."""
    _validate_rows(tables, start, top_pair)
    if top_pair == tables.num_pairs:
        return start == tables.num_groups  # no pairs for what remains
    cursor = _pack_lower_rows(tables, start, top_pair, wires_above, repeaters_above)
    if not np.count_nonzero(cursor[2]):
        return cursor[2] == 0  # the lower pairs hold everything
    if top_pair_leftover is not None:
        capacity = top_pair_leftover
    else:
        capacity = _capacities(tables, top_pair, wires_above, repeaters_above)
    cursor = _fill_live(tables, top_pair, capacity, start, cursor)
    return cursor[2] == 0


def _required_rows(tables: AssignmentTables, start, top_pair: int, wires_above, repeaters_above) -> np.ndarray:
    """:func:`pack_required_leftover` of each row.

    The binding instants are those of the one-query threshold, taken
    over one window per row as wide as the longest walk.
    """
    _validate_rows(tables, start, top_pair)
    required = np.zeros(len(start))
    if not (start < tables.num_groups).any():
        return required  # nothing left to pack
    if top_pair >= tables.num_pairs:
        raise AssignmentError(
            f"top_pair {top_pair} out of range for {tables.num_pairs} pairs"
        )
    group, carry, total = _pack_lower_rows(
        tables, start, top_pair, wires_above, repeaters_above
    )
    rows = np.flatnonzero(total > 0)
    if not len(rows):
        return required
    pitch = float(tables.pair_pitch[top_pair])
    via_footprint = tables.vias_per_wire * float(tables.via_area[top_pair])
    width = int((group[rows] - start[rows]).max()) + 1
    split = max(1, _BLOCK // width)
    for i in range(0, len(rows), split):
        part = rows[i:i + split]
        counts, lengths, past = _window(tables, start[part], group[part], carry[part], width)
        per_wire = lengths * pitch
        area = np.zeros(counts.shape)
        np.multiply(counts[:, :-1], per_wire[:, :-1], out=area[:, 1:])
        np.add.accumulate(area, axis=1, out=area)
        remaining = np.empty(counts.shape, dtype=np.int64)
        remaining[:, 0] = total[part]
        remaining[:, 1:] = counts[:, :-1]
        np.subtract.accumulate(remaining, axis=1, out=remaining)
        slope = per_wire - via_footprint
        bind = np.where(
            slope <= 0,
            area + per_wire + (remaining - 1) * via_footprint,
            area + remaining * via_footprint + counts * slope,
        )
        bind[past] = -np.inf
        most = bind.max(axis=1)
        required[part] = np.where(most > 0.0, most, 0.0)
    return required
