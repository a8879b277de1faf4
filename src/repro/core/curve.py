"""Budget-rank curves: rank as a function of repeater area, in one run.

The DP table already contains every budget level: a state ``(pair, b,
r)`` certifies the top-``b`` groups within ``r`` cells.  The curve runs
the same whole-pair transitions as :func:`repro.core.dp.solve_rank_dp`
(:func:`repro.core.dp_numpy.solve_pairs_curve_numpy`) but, instead of
tracking one global best rank, reduces the rank candidates to the best
rank *per budget cell* — producing the entire rank(budget) curve of a
fixed die in a single solve.  Of each pair's levels (end groups) only
the packable candidate of fewest cells raises the curve, and the M''
packer finds those for all levels in batched calls, one row per level.

This is the clean "budget elasticity" view of the paper's Table 4 R
column: the R sweep couples the budget to die inflation through
Eq. (6), while the curve here holds the die fixed and varies only the
spendable fraction of the provisioned budget.  The marginal-cost
structure (one s_opt repeater per marginal wire) shows up directly as
the curve's near-constant slope.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from ..assign.greedy_assign import pack_suffix
from ..assign.tables import AssignmentTables
from .discretize import DEFAULT_REPEATER_UNITS, discretize_repeaters
from .dp import SolverStats
from .dp_numpy import solve_pairs_curve_numpy


@dataclass(frozen=True)
class BudgetRankCurve:
    """Rank achievable at each budget level on a fixed die.

    Attributes
    ----------
    cell_area:
        Area of one budget cell, square metres.
    ranks:
        ``ranks[r]`` is the best rank using at most ``r`` cells
        (length ``num_units + 1``, non-decreasing).
    fits:
        Definition 3 for the underlying problem.
    stats:
        Solver instrumentation.
    """

    cell_area: float
    ranks: Tuple[int, ...]
    fits: bool
    stats: SolverStats

    @property
    def num_units(self) -> int:
        return len(self.ranks) - 1

    def marginal_wires_per_cell(self) -> List[float]:
        """Finite-difference slope of the curve (wires per cell)."""
        return [
            float(b - a) for a, b in zip(self.ranks, self.ranks[1:])
        ]


def solve_budget_rank_curve(
    tables: AssignmentTables,
    repeater_units: int = DEFAULT_REPEATER_UNITS,
) -> BudgetRankCurve:
    """Compute rank for *every* budget level in one DP pass.

    Same state space and transitions as
    :func:`repro.core.dp.solve_rank_dp` (its ``rows``,
    ``states_explored`` and ``transitions`` counters agree); each
    candidate that packs raises the curve from its own budget usage up.
    """
    start_time = time.perf_counter()
    stats = SolverStats(solver="dp-curve")
    disc = discretize_repeaters(tables, repeater_units)

    fits = pack_suffix(tables, 0, 0, 0, 0.0)
    if fits:
        ranks = solve_pairs_curve_numpy(tables, disc, stats)
    else:
        ranks = np.zeros(disc.num_units + 1, dtype=np.int64)
    stats.runtime_seconds = time.perf_counter() - start_time
    return BudgetRankCurve(
        cell_area=disc.unit_area,
        ranks=tuple(int(x) for x in ranks),
        fits=fits,
        stats=stats,
    )
