"""Repeater-area discretization shared by every solver.

The paper's DP indexes repeater area by integer cells ``r = 1 .. A_R``.
We discretize the physical budget ``A_R`` (m^2) into ``repeater_units``
cells and charge each *contiguous per-layer-pair block* of wires the
ceiling of its exact repeater area in cells.  Rounding happens once per
(layer-pair, block) — not per wire or per group — so a solution path
through ``m`` layer-pairs is overcharged by at most ``m`` cells out of
``repeater_units``: conservative (discretized-feasible implies
physically feasible) with an error that vanishes as ``repeater_units``
grows (exercised by ``benchmarks/bench_discretization.py``).

Every solver (optimized DP, reference DP, exhaustive) charges budgets
through this module so that cross-validation tests compare identical
semantics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..assign.tables import AssignmentTables
from ..errors import RankComputationError

#: Default number of repeater-area cells.
DEFAULT_REPEATER_UNITS = 512

#: Slack used when ceiling areas to cells, so exact multiples do not
#: round up on floating-point noise.
CEIL_EPS = 1e-9


@dataclass(frozen=True)
class RepeaterDiscretization:
    """Budget cells and block-cost evaluation.

    A slice's repeater area is read off the tables
    (``tables.cum_rep_area[p][e] - tables.cum_rep_area[p][b]``); whether
    the slice meets delay is ``tables.next_infeasible``'s question, not
    this one's.

    Attributes
    ----------
    num_units:
        Number of budget cells ``R`` (0 when the budget is zero).
    unit_area:
        Area of one cell in square metres (``inf`` when the budget is
        zero, so any positive demand is unaffordable).
    """

    num_units: int
    unit_area: float

    def cells(self, areas: "np.ndarray | float") -> np.ndarray:
        """Cells needed to pay for exact repeater areas (scalar or array).

        ``inf`` where a positive area meets a zero budget.  The DP
        kernel's rank-scan candidates and witness walk
        (:mod:`repro.core.dp_numpy`), the exhaustive solver and the test
        oracles charge their cells through it; the whole-pair transition
        repeats the same IEEE sequence in place.
        """
        if math.isinf(self.unit_area):
            return np.where(areas > 0.0, np.inf, 0.0)
        units = np.ceil(areas / self.unit_area - CEIL_EPS)
        return np.where(areas <= 0.0, 0.0, units)


def discretize_repeaters(
    tables: AssignmentTables, repeater_units: int = DEFAULT_REPEATER_UNITS
) -> RepeaterDiscretization:
    """Build the shared discretization for one problem's tables."""
    if repeater_units <= 0:
        raise RankComputationError(
            f"repeater_units must be positive, got {repeater_units!r}"
        )
    budget = tables.repeater_budget_area
    if budget <= 0.0:
        num_units = 0
        unit_area = math.inf
    else:
        num_units = repeater_units
        unit_area = budget / repeater_units
    return RepeaterDiscretization(num_units=num_units, unit_area=unit_area)
