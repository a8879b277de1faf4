"""Coarsening accuracy / runtime study (paper Section 5.1, experiment E8).

The paper reduces instance size by *bunching* the WLD (assigning wires
in bunches of up to 10000) and bounds the resulting rank error by the
maximum bunch size.  :func:`coarsening_study` measures that trade-off
directly: rank and runtime as a function of bunch size, each point
carrying its a-priori error bound, so the claimed bound can be checked
against the observed deviation from the finest run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..core.problem import RankProblem
from ..core.rank import RankResult, compute_rank
from ..errors import RankComputationError


@dataclass(frozen=True)
class CoarseningPoint:
    """Rank at one bunch size.

    Attributes
    ----------
    bunch_size:
        Maximum wires per coarse group (None = no bunching, i.e. the
        natural per-length groups of the WLD).
    result:
        Rank result at this coarsening.
    error_bound:
        A-priori rank error bound (max bunch count of the coarse WLD).
    runtime_seconds:
        Solver runtime at this coarsening.
    """

    bunch_size: Optional[int]
    result: RankResult
    error_bound: int
    runtime_seconds: float


def coarsening_study(
    problem: RankProblem,
    bunch_sizes: Sequence[Optional[int]] = (50_000, 20_000, 10_000, 5_000, 2_000),
    solver: str = "dp",
    repeater_units: int = 512,
) -> List[CoarseningPoint]:
    """Rank vs bunch size, with error bounds and runtimes.

    Points are returned in the order given; callers typically sweep from
    coarse to fine and verify every pair of points differs by no more
    than the sum of their error bounds (the paper's Section 5.1 claim).
    """
    if not bunch_sizes:
        raise RankComputationError("coarsening study needs at least one bunch size")
    points: List[CoarseningPoint] = []
    for bunch_size in bunch_sizes:
        result = compute_rank(
            problem,
            solver=solver,
            bunch_size=bunch_size,
            repeater_units=repeater_units,
        )
        points.append(
            CoarseningPoint(
                bunch_size=bunch_size,
                result=result,
                error_bound=result.error_bound,
                runtime_seconds=result.stats.runtime_seconds,
            )
        )
    return points


def max_pairwise_deviation(points: Sequence[CoarseningPoint]) -> int:
    """Largest absolute rank difference between any two study points."""
    ranks = [p.result.rank for p in points]
    return max(ranks) - min(ranks) if ranks else 0
