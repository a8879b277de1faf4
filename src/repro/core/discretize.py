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

    Attributes
    ----------
    num_units:
        Number of budget cells ``R`` (0 when the budget is zero).
    unit_area:
        Area of one cell in square metres (``inf`` when the budget is
        zero, so any positive demand is unaffordable).
    cum_rep_area:
        ``(m, G+1)`` exact cumulative repeater areas per pair, with
        ``+inf`` poisoning at delay-infeasible groups (shared with the
        assignment tables).
    """

    num_units: int
    unit_area: float
    cum_rep_area: np.ndarray

    def area_to_units(self, area: float) -> float:
        """Cells needed to pay for an exact area (``inf`` if unpayable)."""
        if area <= 0.0:
            return 0.0
        if not math.isfinite(area) or math.isinf(self.unit_area):
            return math.inf
        return math.ceil(area / self.unit_area - CEIL_EPS)

    def slice_units(self, pair: int, start: int, end: int) -> float:
        """Cell cost of groups ``[start, end)`` assigned to ``pair``.

        ``inf`` if any group in the slice cannot meet delay there (the
        poisoned cumulative sum) or the budget is zero while the slice
        needs repeaters.
        """
        area = float(self.cum_rep_area[pair][end] - self.cum_rep_area[pair][start])
        if math.isnan(area):  # inf - inf when both ends are poisoned
            return math.inf
        return self.area_to_units(area)

    def slice_units_spans(self, pair: int, starts, ends) -> np.ndarray:
        """Vectorized :meth:`slice_units` over arbitrary (start, end) spans.

        ``starts`` and ``ends`` broadcast against each other (one start
        per DP state, many ends per start, all flattened into one call).
        The DP kernel's rank-scan candidates and witness-parent recovery
        (:mod:`repro.core.dp_numpy`) and the scalar test oracle charge
        their cell costs through it; the whole-pair transition repeats
        the same IEEE sequence in place.  A slice poisoned at both ends
        (``inf - inf``) costs ``inf``.
        """
        with np.errstate(invalid="ignore"):
            # inf - inf -> nan when both cumulative ends are poisoned;
            # treated as infeasible below.
            areas = self.cum_rep_area[pair][ends] - self.cum_rep_area[pair][starts]
            if math.isinf(self.unit_area):
                units = np.where(areas > 0.0, np.inf, 0.0)
            else:
                units = np.ceil(areas / self.unit_area - CEIL_EPS)
                units = np.where(areas <= 0.0, 0.0, units)
        return np.where(np.isnan(units), np.inf, units)


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
    return RepeaterDiscretization(
        num_units=num_units,
        unit_area=unit_area,
        cum_rep_area=tables.cum_rep_area,
    )
