"""Faithful wire-at-a-time reference implementation of Algorithms 1-5.

A test oracle: no product path runs it.

This solver re-implements the paper's procedures as literally as
practical — per-wire loops, *incremental* repeater insertion (Algorithm 4
steps 8-11: add one repeater at a time until the target is met or adding
repeaters stops helping), an explicit bottom-up per-wire packer with via
reservations (Algorithm 5), and a dictionary-based DP over the
``(wires assigned, budget cells, repeater count)`` states of the Eq. (1)
recurrence restricted to its reachable all-meeting form.

It is deliberately *implementation-independent* from
:mod:`repro.core.dp` (no shared prefix sums, no closed-form stage
counts, no vectorization) while having identical semantics, so agreement
between the two on randomized instances is strong evidence both are
right (``tests/core/test_cross_validation.py``).  It requires a WLD with
one wire per group (expand or use count-1 synthetic WLDs) and is only
suitable for small ``n``.
"""

from __future__ import annotations

import math
import time
from typing import Dict, Optional, Tuple

from repro.assign.tables import AssignmentTables
from repro.core.discretize import DEFAULT_REPEATER_UNITS, discretize_repeaters
from repro.core.dp import RawSolution, SolverStats
from repro.delay.ottenbrayton import wire_delay
from repro.errors import RankComputationError


def _incremental_insertion(
    tables: AssignmentTables, pair: int, wire: int
) -> Optional[Tuple[int, int]]:
    """Algorithm 4's inner loop: add repeater stages until the target is met.

    Returns ``(charged_stages, inline_repeaters)`` — 0 charged stages
    when the bare minimum-size driver already meets the target, else the
    minimal count of budgeted size-``s_opt`` stages (the upsized driver
    included) and the ``charged - 1`` repeaters physically inline — or
    ``None`` when no stage count meets the target (delay stops improving
    while still above target).
    """
    rc = tables.arch.pair(pair).rc
    device = tables.die.node.device
    size = float(tables.repeater_size[pair])
    length = float(tables.lengths_m[wire])
    target = float(tables.targets[wire])

    if tables.driver_policy == "free-bare" and (
        wire_delay(rc, device, 1.0, 1, length) <= target
    ):
        return 0, 0  # free pass from the bare minimum-size driver

    stages = 1
    delay = wire_delay(rc, device, size, stages, length)
    while delay > target:
        stages += 1
        next_delay = wire_delay(rc, device, size, stages, length)
        if next_delay >= delay:
            return None  # adding repeaters no longer helps
        delay = next_delay
    return stages, stages - 1


def _wire_assign(
    tables: AssignmentTables,
    disc,
    pair: int,
    start_wire: int,
    end_wire: int,
    wires_above: int,
    repeaters_above: int,
    cells_available: int,
) -> Optional[Tuple[int, int, float]]:
    """The M' oracle, per-wire (Algorithm 4).

    Assign wires ``[start_wire, end_wire)`` to ``pair``, each meeting
    its target via incremental insertion, within ``cells_available``
    budget cells.  Returns ``(cells_used, repeaters_inserted,
    leftover_capacity)`` or ``None`` if infeasible.
    """
    capacity = tables.capacity(pair, wires_above, repeaters_above)
    area_used = 0.0
    rep_area_used = 0.0
    repeaters = 0
    for wire in range(start_wire, end_wire):
        area = float(tables.lengths_m[wire]) * float(tables.pair_pitch[pair])
        if area_used + area > capacity * (1 + 1e-12):
            return None
        area_used += area
        insertion = _incremental_insertion(tables, pair, wire)
        if insertion is None:
            return None
        charged, inline = insertion
        if charged:
            rep_area_used += charged * float(tables.repeater_unit_area[pair])
            # Budget cells are charged once per (pair, block), matching
            # the shared discretization semantics.
            if disc.cells(rep_area_used) > cells_available:
                return None
            repeaters += inline
    cells_used = disc.cells(rep_area_used)
    if math.isinf(cells_used):
        return None
    return int(cells_used), repeaters, capacity - area_used


def _greedy_pack(
    tables: AssignmentTables,
    start_wire: int,
    top_pair: int,
    wires_above: int,
    repeaters_above: int,
    top_pair_leftover: Optional[float] = None,
) -> bool:
    """The M'' oracle, per-wire (Algorithm 5, literal port).

    Packs wires shortest-first into pairs bottom-up; while packing pair
    ``q`` it reserves one via footprint per still-unassigned wire (they
    will land above ``q`` and punch through it).
    """
    n = tables.num_groups
    if start_wire == n:
        return True
    if top_pair >= tables.num_pairs:
        return False

    unassigned = list(range(n - 1, start_wire - 1, -1))  # shortest first
    pointer = 0
    for pair in range(tables.num_pairs - 1, top_pair - 1, -1):
        if pointer >= len(unassigned):
            return True
        if pair == top_pair and top_pair_leftover is not None:
            capacity = top_pair_leftover
        else:
            capacity = tables.capacity(pair, wires_above, repeaters_above)
        via_footprint = tables.vias_per_wire * float(tables.via_area[pair])
        area_used = 0.0
        while pointer < len(unassigned):
            wire = unassigned[pointer]
            area = float(tables.lengths_m[wire]) * float(tables.pair_pitch[pair])
            remaining_after = len(unassigned) - pointer - 1
            if (
                area_used + area + remaining_after * via_footprint
                > capacity * (1 + 1e-12)
            ):
                break  # pair full
            area_used += area
            pointer += 1
    return pointer >= len(unassigned)


def solve_rank_reference(
    tables: AssignmentTables,
    repeater_units: int = DEFAULT_REPEATER_UNITS,
) -> RawSolution:
    """Rank by the faithful wire-at-a-time DP (small instances only).

    Raises
    ------
    RankComputationError
        If the WLD has groups with more than one wire (expand first) —
        the reference is defined at wire granularity.
    """
    if any(int(c) != 1 for c in tables.counts):
        raise RankComputationError(
            "the reference solver requires one wire per group; "
            "expand the WLD to unit counts first"
        )
    start_time = time.perf_counter()
    stats = SolverStats(solver="reference")

    disc = discretize_repeaters(tables, repeater_units)
    n = tables.num_groups
    m = tables.num_pairs
    num_cells = disc.num_units

    if not _greedy_pack(tables, 0, 0, 0, 0):
        stats.runtime_seconds = time.perf_counter() - start_time
        return RawSolution(rank=0, fits=False, stats=stats)

    best_rank = 0
    # states[(b, r)] = minimal repeater count with the first b wires all
    # meeting their targets in pairs 0..j using at most r cells.
    states: Dict[Tuple[int, int], int] = {(0, 0): 0}

    for pair in range(m):
        new_states: Dict[Tuple[int, int], int] = {}

        def offer(key: Tuple[int, int], reps: int) -> None:
            if key not in new_states or reps < new_states[key]:
                new_states[key] = reps

        for (b, r), z in states.items():
            stats.states_explored += 1
            # Extend the prefix into this pair one wire at a time; stop
            # at the first infeasibility (area or delay or budget).
            for e in range(b, n + 1):
                result = _wire_assign(
                    tables, disc, pair, b, e, b, z, num_cells - r
                )
                if result is None:
                    break
                cells_used, repeaters, leftover = result
                stats.transitions += 1
                offer((e, r + cells_used), z + repeaters)
                if e > best_rank:
                    stats.pack_checks += 1
                    if _greedy_pack(
                        tables, e, pair, e, z + repeaters, leftover
                    ):
                        stats.pack_successes += 1
                        best_rank = e
        # Merge: keep dominance over budget (a state reachable with
        # fewer cells is also reachable with more).
        merged: Dict[Tuple[int, int], int] = dict(states)
        for key, reps in new_states.items():
            if key not in merged or reps < merged[key]:
                merged[key] = reps
        # Budget-monotone closure per wire count.
        closed: Dict[Tuple[int, int], int] = {}
        by_b: Dict[int, Dict[int, int]] = {}
        for (b, r), z in merged.items():
            by_b.setdefault(b, {})[r] = min(z, by_b.get(b, {}).get(r, z))
        for b, row in by_b.items():
            best = math.inf
            for r in range(num_cells + 1):
                if r in row and row[r] < best:
                    best = row[r]
                if math.isfinite(best):
                    closed[(b, r)] = int(best)
        states = closed

    stats.runtime_seconds = time.perf_counter() - start_time
    return RawSolution(rank=best_rank, fits=True, stats=stats)
