"""Stable keyword-only facade over the library's entry points.

This module is the supported public surface of the package: everything
here is re-exported from :mod:`repro` and covered by the deprecation
policy (old spellings keep working for one minor release with a
:class:`DeprecationWarning`; facade signatures only grow, never
reorder).  Direct imports from implementation modules
(``repro.core.rank``, ``repro.analysis.sweep``, ...) still work but are
not part of the stable surface.

Design rules:

* **Keyword-only options.**  Every function takes its subject(s)
  positionally and everything else keyword-only, so options can be
  added or reordered without breaking callers.  Legacy positional
  calls to :func:`compute_rank` are shimmed with a
  :class:`DeprecationWarning` (see ``_LEGACY_POSITIONAL``).
* **One backend knob.**  Every rank-computing function accepts
  ``backend=`` (``"numpy"`` / ``"python"`` / ``None`` meaning the
  ``REPRO_RANK_BACKEND`` environment variable, then ``"numpy"``) and
  threads it to the DP transition kernels; results are identical
  across backends, only speed differs.
"""

from __future__ import annotations

import time
import warnings
from typing import TYPE_CHECKING, Any, Callable, Dict, Optional, Sequence, Tuple

if TYPE_CHECKING:  # import-time cycle guards; annotations are lazy
    from .analysis.corners import Corner, CornerReport
    from .analysis.sweep import SweepResult
    from .assign.tables import AssignmentTables
    from .core.curve import BudgetRankCurve
    from .optimize.search import DesignSpace, OptimizationResult

from .core.discretize import DEFAULT_REPEATER_UNITS
from .core.dp import BACKENDS, resolve_backend, solve_rank_dp
from .core.precompute import PrecomputeCache
from .core.problem import RankProblem
from .core.rank import RankResult
from .core.rank import compute_rank as _compute_rank_impl
from .core.scenarios import baseline_problem
from .errors import RankComputationError
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
    "bench",
    # Re-exported building blocks, so caller layers (CLI, tools,
    # benchmarks — see lintkit rule RPL004) never reach into
    # repro.core directly:
    "baseline_problem",
    "DesignSpace",
    "PrecomputeCache",
    "RankProblem",
    "RankResult",
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

#: Legacy positional parameter order of ``compute_rank`` (everything
#: after ``problem``), used by the deprecation shim below.
_LEGACY_POSITIONAL = (
    "solver",
    "bunch_size",
    "max_groups",
    "repeater_units",
    "collect_witness",
    "deadline",
    "cache",
)


def compute_rank(
    problem: RankProblem,
    *args: Any,
    solver: str = "dp",
    bunch_size: Optional[int] = None,
    max_groups: Optional[int] = None,
    repeater_units: int = DEFAULT_REPEATER_UNITS,
    collect_witness: bool = False,
    deadline: Optional[float] = None,
    cache: Optional[PrecomputeCache] = None,
    backend: Optional[str] = None,
) -> RankResult:
    """Compute the rank of the problem's architecture.

    Facade over :func:`repro.core.rank.compute_rank` with a stable
    keyword-only signature.  Positional use of the option parameters
    (the pre-facade signature) still works but emits a
    :class:`DeprecationWarning`.

    See :func:`repro.core.rank.compute_rank` for parameter semantics;
    ``backend`` selects the DP transition kernels (``"numpy"`` /
    ``"python"``, identical results).
    """
    if args:
        warnings.warn(
            "positional options to compute_rank() are deprecated; "
            "pass solver=, bunch_size=, ... as keywords",
            DeprecationWarning,
            stacklevel=2,
        )
        if len(args) > len(_LEGACY_POSITIONAL):
            raise TypeError(
                f"compute_rank() takes at most {len(_LEGACY_POSITIONAL)} "
                f"positional options, got {len(args)}"
            )
        explicit = {
            "solver": solver,
            "bunch_size": bunch_size,
            "max_groups": max_groups,
            "repeater_units": repeater_units,
            "collect_witness": collect_witness,
            "deadline": deadline,
            "cache": cache,
        }
        for name, value in zip(_LEGACY_POSITIONAL, args):
            explicit[name] = value
        solver = explicit["solver"]
        bunch_size = explicit["bunch_size"]
        max_groups = explicit["max_groups"]
        repeater_units = explicit["repeater_units"]
        collect_witness = explicit["collect_witness"]
        deadline = explicit["deadline"]
        cache = explicit["cache"]
    return _compute_rank_impl(
        problem,
        solver=solver,
        bunch_size=bunch_size,
        max_groups=max_groups,
        repeater_units=repeater_units,
        collect_witness=collect_witness,
        deadline=deadline,
        cache=cache,
        backend=backend,
    )


def sweep(
    name: str,
    values: Sequence[float],
    make_problem: Callable[[float], RankProblem],
    *,
    backend: Optional[str] = None,
    **options: Any,
) -> "SweepResult":
    """Evaluate the rank at each knob value (the Table 4 engine).

    Facade over :func:`repro.analysis.sweep.run_sweep`; all of its
    keyword options (``paper``, ``solver``, ``bunch_size``,
    ``max_groups``, ``repeater_units``, retry/checkpoint/parallelism
    controls, ``cache``, ``fault_schedule``) pass through, plus the
    ``backend`` knob.
    """
    from .analysis.sweep import run_sweep

    return run_sweep(name, values, make_problem, backend=backend, **options)


def corners(
    problem: RankProblem,
    *,
    corners: Optional[Sequence["Corner"]] = None,
    backend: Optional[str] = None,
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
        backend=backend,
        **options,
    )


def optimize(
    problem: RankProblem,
    space: "DesignSpace",
    *,
    backend: Optional[str] = None,
    **options: Any,
) -> "OptimizationResult":
    """Search a design space for the highest-rank architecture.

    Facade over :func:`repro.optimize.search.optimize_architecture`;
    search controls (``exhaustive_limit``, ``shielding_aware``, retry /
    checkpoint / parallelism options) and solve options (``bunch_size``,
    ``repeater_units``, ...) pass through, plus the ``backend`` knob.
    """
    from .optimize.search import optimize_architecture

    return optimize_architecture(problem, space, backend=backend, **options)


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
    problem = baseline_problem(
        request.node, request.gates, **request.problem_kwargs()
    )
    if deadline is None and request.deadline_s is not None:
        deadline = time.monotonic() + request.deadline_s
    return compute_rank(
        problem, deadline=deadline, cache=cache, **request.solve_kwargs()
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


def bench(
    *,
    node: str = "130nm",
    gates: int = 1_000_000,
    bunch_size: Optional[int] = 10_000,
    repeater_units: int = DEFAULT_REPEATER_UNITS,
    backends: Sequence[str] = BACKENDS,
    repeats: int = 3,
    collect_witness: bool = False,
) -> Dict[str, object]:
    """Time the DP backends on one problem and check they agree.

    Builds the Table 4 baseline for ``node`` / ``gates``, solves it
    ``repeats`` times per backend (best-of to suppress scheduler
    noise), and returns per-backend timings plus the cross-backend
    speedup.

    Raises :class:`~repro.errors.RankComputationError` if the backends
    disagree on rank — a benchmark of wrong answers is worthless.
    """
    if repeats < 1:
        raise RankComputationError(f"repeats must be >= 1, got {repeats!r}")
    problem = baseline_problem(node, gates)

    t0 = time.perf_counter()
    tables, _ = problem.tables(bunch_size=bunch_size)
    tables_s = time.perf_counter() - t0

    timings: Dict[str, Dict[str, object]] = {}
    ranks = {}
    for backend in backends:
        backend = resolve_backend(backend)
        best = float("inf")
        raw = None
        for _ in range(repeats):
            start = time.perf_counter()
            raw = solve_rank_dp(
                tables,
                repeater_units=repeater_units,
                collect_witness=collect_witness,
                backend=backend,
            )
            best = min(best, time.perf_counter() - start)
        ranks[backend] = raw.rank
        timings[backend] = {
            "solve_s": best,
            "rank": raw.rank,
            "transitions": raw.stats.transitions,
        }
    if len(set(ranks.values())) > 1:
        raise RankComputationError(
            f"DP backends disagree on rank: {ranks} — refusing to benchmark"
        )

    speedup = None
    if "python" in timings and "numpy" in timings:
        numpy_s = timings["numpy"]["solve_s"]
        if numpy_s > 0:
            speedup = timings["python"]["solve_s"] / numpy_s
    return {
        "node": node,
        "gates": gates,
        "bunch_size": bunch_size,
        "repeater_units": repeater_units,
        "collect_witness": collect_witness,
        "repeats": repeats,
        "tables_s": tables_s,
        "backends": timings,
        "speedup_numpy_over_python": speedup,
    }
