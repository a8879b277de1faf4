"""Exhaustive rank computation for tiny instances.

Enumerates *every* monotone assignment — every way of splitting the
rank-ordered wire list into ``m`` contiguous blocks, one per layer-pair
top-down (the paper's "longer wires on upper layer-pairs" assumption
fixes this shape) — and for each, the largest all-meeting prefix ``k``
that survives capacity, via blockage, and budget accounting.

This is the optimality oracle of the test suite: DP and reference
solvers must agree with it exactly on unit-count WLDs (where group
granularity equals wire granularity).  It also independently validates
the paper's Lemma 1: whenever ``greedy_assign`` reports the suffix
unpackable, no enumerated partition packs it either.
"""

from __future__ import annotations

import math
import time
from itertools import combinations
from typing import Iterator, Tuple

from ..assign.tables import AssignmentTables
from ..errors import RankComputationError
from .discretize import DEFAULT_REPEATER_UNITS, discretize_repeaters
from .dp import RawSolution, SolverStats


def _partitions(n: int, m: int) -> Iterator[Tuple[int, ...]]:
    """All ways to split ``n`` ordered wires into ``m`` ordered blocks.

    Yields the block boundaries as an ``(m + 1)``-tuple ``b`` with
    ``b[0] = 0 <= b[1] <= ... <= b[m] = n``: pair ``p`` gets wires
    ``[b[p], b[p+1])``.
    """
    for cuts in combinations(range(n + m - 1), m - 1):
        boundary = [0]
        for index, cut in enumerate(cuts):
            boundary.append(cut - index)
        boundary.append(n)
        yield tuple(boundary)


def _prefix_feasible(
    tables: AssignmentTables,
    disc,
    boundary: Tuple[int, ...],
    k: int,
) -> bool:
    """Is the partition feasible with the first ``k`` wires all meeting?"""
    m = tables.num_pairs
    num_cells = disc.num_units

    # Repeater demand of the prefix, per pair.  Budget cells are charged
    # once per (pair, block) — the shared discretization semantics.
    cells_total = 0.0
    reps_by_pair = [0] * m
    for pair in range(m):
        pair_rep_area = 0.0
        for wire in range(boundary[pair], min(boundary[pair + 1], k)):
            stages = int(tables.stages[pair][wire])
            if stages < 0:
                return False
            if stages > 0:  # charged stages; 0 = free bare-driver pass
                pair_rep_area += stages * float(tables.repeater_unit_area[pair])
                reps_by_pair[pair] += stages - 1
        cells_total += disc.cells(pair_rep_area)
    if cells_total > num_cells:
        return False

    # Capacity with via blockage from wires and repeaters above.
    reps_above = 0
    for pair in range(m):
        capacity = tables.capacity(pair, boundary[pair], reps_above)
        area = float(
            tables.cum_wire_area[pair][boundary[pair + 1]]
            - tables.cum_wire_area[pair][boundary[pair]]
        )
        if area > capacity * (1 + 1e-12):
            return False
        reps_above += reps_by_pair[pair]
    return True


def solve_rank_exhaustive(
    tables: AssignmentTables,
    repeater_units: int = DEFAULT_REPEATER_UNITS,
) -> RawSolution:
    """Exact rank by brute force (unit-count WLDs, tiny ``n`` only).

    Raises
    ------
    RankComputationError
        If any group holds more than one wire.
    """
    if any(int(c) != 1 for c in tables.counts):
        raise RankComputationError(
            "the exhaustive solver requires one wire per group; "
            "expand the WLD to unit counts first"
        )
    start_time = time.perf_counter()
    stats = SolverStats(solver="exhaustive")

    disc = discretize_repeaters(tables, repeater_units)
    n = tables.num_groups
    m = tables.num_pairs

    best_rank = -1  # -1 = not even k=0 feasible anywhere (does not fit)
    for boundary in _partitions(n, m):
        stats.states_explored += 1
        # Feasibility is monotone in k (larger prefixes only add
        # constraints), so scan downward and stop at the first success.
        low = best_rank + 1 if best_rank >= 0 else 0
        for k in range(n, low - 1, -1):
            stats.transitions += 1
            if _prefix_feasible(tables, disc, boundary, k):
                best_rank = max(best_rank, k)
                break

    stats.runtime_seconds = time.perf_counter() - start_time
    if best_rank < 0:
        return RawSolution(rank=0, fits=False, stats=stats)
    return RawSolution(rank=best_rank, fits=True, stats=stats)
