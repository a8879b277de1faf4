"""Stable keyword-only facade over the library's entry points.

This module is the supported public surface of the package: everything
here is re-exported from :mod:`repro`.  Direct imports from
implementation modules (``repro.core.rank``, ``repro.analysis.sweep``,
...) still work but are not part of the stable surface.

Design rules:

* **Keyword-only options.**  Every function takes its subject(s)
  positionally and everything else keyword-only, so options can be
  added or reordered without breaking callers.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Any, Callable, Optional, Sequence, Tuple

if TYPE_CHECKING:  # import-time cycle guards; annotations are lazy
    from .analysis.corners import Corner, CornerReport
    from .analysis.sweep import SweepResult
    from .assign.tables import AssignmentTables
    from .core.curve import BudgetRankCurve
    from .optimize.search import DesignSpace, OptimizationResult

from .core.discretize import DEFAULT_REPEATER_UNITS
from .core.precompute import PrecomputeCache
from .core.problem import RankProblem
from .core.rank import SOLVERS, RankResult
from .core.rank import compute_rank as _compute_rank_impl
from .core.scenarios import baseline_problem
from .faultkit import FaultSchedule, FaultSpec, parse_fault_schedule
from .optimize.space import DesignSpace
from .schema import (
    SCHEMA_VERSION,
    CornersRequest,
    OptimizeRequest,
    RankRequest,
    RankResponse,
    SweepRequest,
)
from .tech.io import load_node

__all__ = [
    "compute_rank",
    "sweep",
    "corners",
    "optimize",
    "optimize_rank",
    "budget_curve",
    "load_node",
    # Re-exported building blocks, so caller layers (CLI, tools,
    # benchmarks — see lintkit rule RPL004) never reach into
    # repro.core directly:
    "baseline_problem",
    "DesignSpace",
    "PrecomputeCache",
    "RankProblem",
    "RankResult",
    "SOLVERS",
    # Deterministic chaos testing: batch entry points (sweep, corners,
    # optimize) accept fault_schedule= and thread it to the runner.
    "FaultSchedule",
    "FaultSpec",
    "parse_fault_schedule",
    # The v1 wire schema (repro.schema): typed, canonicalizable,
    # fingerprinted requests — what the service, CLI, and persistence
    # construct instead of ad-hoc kwarg dicts.
    "SCHEMA_VERSION",
    "RankRequest",
    "SweepRequest",
    "CornersRequest",
    "OptimizeRequest",
    "RankResponse",
    "solve_rank_request",
]

def compute_rank(
    problem: RankProblem,
    *,
    solver: str = "dp",
    bunch_size: Optional[int] = None,
    max_groups: Optional[int] = None,
    repeater_units: int = DEFAULT_REPEATER_UNITS,
    collect_witness: bool = False,
    deadline: Optional[float] = None,
    cache: Optional[PrecomputeCache] = None,
) -> RankResult:
    """Compute the rank of the problem's architecture.

    Facade over :func:`repro.core.rank.compute_rank` with a stable
    keyword-only signature; see there for parameter semantics.
    """
    return _compute_rank_impl(
        problem,
        solver=solver,
        bunch_size=bunch_size,
        max_groups=max_groups,
        repeater_units=repeater_units,
        collect_witness=collect_witness,
        deadline=deadline,
        cache=cache,
    )


def sweep(
    name: str,
    values: Sequence[float],
    make_problem: Callable[[float], RankProblem],
    **options: Any,
) -> "SweepResult":
    """Evaluate the rank at each knob value (the Table 4 engine).

    Facade over :func:`repro.analysis.sweep.run_sweep`; all of its
    keyword options (``paper``, ``solver``, ``bunch_size``,
    ``max_groups``, ``repeater_units``, retry/checkpoint/parallelism
    controls, ``cache``, ``fault_schedule``) pass through.
    """
    from .analysis.sweep import run_sweep

    return run_sweep(name, values, make_problem, **options)


def corners(
    problem: RankProblem,
    *,
    corners: Optional[Sequence["Corner"]] = None,
    **options: Any,
) -> "CornerReport":
    """Evaluate the rank across process/operating corners.

    Facade over :func:`repro.analysis.corners.rank_across_corners`
    (``corners=None`` evaluates the standard five-corner set); returns
    its :class:`~repro.analysis.corners.CornerReport`.
    """
    from .analysis.corners import STANDARD_CORNERS, rank_across_corners

    return rank_across_corners(
        problem,
        corners=STANDARD_CORNERS if corners is None else corners,
        **options,
    )


def optimize(
    problem: RankProblem,
    space: "DesignSpace",
    **options: Any,
) -> "OptimizationResult":
    """Search a design space for the highest-rank architecture.

    Facade over :func:`repro.optimize.search.optimize_architecture`;
    search controls (``exhaustive_limit``, ``shielding_aware``, retry /
    checkpoint / parallelism options) and solve options (``bunch_size``,
    ``repeater_units``, ...) pass through.
    """
    from .optimize.search import optimize_architecture

    return optimize_architecture(problem, space, **options)


#: Facade-named alias of :func:`optimize`, re-exported from the
#: :mod:`repro` top level.  The bare name ``optimize`` cannot live
#: there — it would shadow the ``repro.optimize`` subpackage and break
#: ``import repro.optimize.search`` — so the top level carries this
#: non-shadowing spelling instead; ``repro.api.optimize`` remains the
#: namespaced original.
optimize_rank = optimize


def solve_rank_request(
    request: RankRequest,
    *,
    cache: Optional[PrecomputeCache] = None,
    deadline: Optional[float] = None,
) -> RankResult:
    """Solve one typed :class:`~repro.schema.RankRequest`.

    The request carries the problem definition (node, gates, knobs)
    and the solve options; ``deadline`` (absolute ``time.monotonic()``,
    overriding the request's relative ``deadline_s`` when given) and
    ``cache`` are execution-context concerns supplied by the caller —
    the service passes its process-wide :class:`PrecomputeCache` and
    the per-request deadline here.
    """
    if deadline is None and request.deadline_s is not None:
        deadline = time.monotonic() + request.deadline_s
    return compute_rank(
        request.problem(), deadline=deadline, cache=cache, **request.solve_kwargs()
    )


def budget_curve(
    problem: RankProblem,
    *,
    bunch_size: Optional[int] = None,
    repeater_units: int = DEFAULT_REPEATER_UNITS,
    cache: Optional[PrecomputeCache] = None,
) -> Tuple["BudgetRankCurve", "AssignmentTables"]:
    """Rank as a function of repeater budget, in one DP pass.

    Facade over :func:`repro.core.curve.solve_budget_rank_curve`.
    Returns ``(curve, tables)``: the
    :class:`~repro.core.curve.BudgetRankCurve` plus the assignment
    tables it was solved on (whose ``total_wires`` normalises the
    curve for reporting).
    """
    from .core.curve import solve_budget_rank_curve

    tables, _ = problem.tables(bunch_size=bunch_size, cache=cache)
    curve = solve_budget_rank_curve(tables, repeater_units=repeater_units)
    return curve, tables

