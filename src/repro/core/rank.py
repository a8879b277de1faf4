"""Public rank API.

:func:`compute_rank` is the library's front door: it takes a
:class:`~repro.core.problem.RankProblem`, applies the requested
coarsening, runs the requested solver, and returns a
:class:`RankResult` carrying the absolute rank, the normalized rank the
paper's Table 4 reports (rank / total wires), the Definition 3 fits
flag, and the coarsening error bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Tuple

from ..errors import RankComputationError
from .discretize import DEFAULT_REPEATER_UNITS
from .dp import (
    RawSolution,
    SolverStats,
    WitnessSegment,
    check_deadline,
    solve_rank_dp,
)
from .greedy import solve_rank_greedy
from .problem import RankProblem

if TYPE_CHECKING:
    from .precompute import PrecomputeCache

#: Registered solver names: the one list ``compute_rank``, the wire
#: schema and the CLI accept.
SOLVERS = ("dp", "greedy")


@dataclass(frozen=True)
class RankResult:
    """Outcome of one rank computation.

    Attributes
    ----------
    rank:
        The IA's rank: number of wires in the maximal prefix of the WLD
        (longest first) that all meet their target delays; 0 when the
        WLD does not fit (Definition 3).
    normalized:
        ``rank / total_wires`` — the quantity the paper's Table 4
        reports.
    total_wires:
        The paper's ``n`` (of the *original*, uncoarsened WLD).
    fits:
        Definition 3's condition: all wires assignable ignoring delay.
    error_bound:
        Bunching rank error bound (max coarse group size); 0 for exact
        (unit-count) runs is never claimed — a bound of ``g`` means the
        true rank lies within ``rank ± g`` of the reported value.
    solver:
        Which solver produced the result.
    stats:
        Instrumentation counters from the solver.
    witness:
        Optional winning prefix assignment (DP solver only).
    """

    rank: int
    normalized: float
    total_wires: int
    fits: bool
    error_bound: int
    solver: str
    stats: SolverStats
    witness: Optional[Tuple[WitnessSegment, ...]] = None

    def summary(self) -> str:
        """One-line human-readable result.  It holds no wall time
        (``stats.runtime_seconds`` does), so equal results print equal
        lines."""
        status = "fits" if self.fits else "DOES NOT FIT (rank 0 by Definition 3)"
        return (
            f"rank {self.rank} / {self.total_wires} wires "
            f"(normalized {self.normalized:.6f}, +/-{self.error_bound}; "
            f"{status}; solver={self.solver})"
        )


def compute_rank(
    problem: RankProblem,
    solver: str = "dp",
    bunch_size: Optional[int] = None,
    max_groups: Optional[int] = None,
    repeater_units: int = DEFAULT_REPEATER_UNITS,
    collect_witness: bool = False,
    deadline: Optional[float] = None,
    cache: Optional["PrecomputeCache"] = None,
) -> RankResult:
    """Compute the rank of the problem's architecture.

    Parameters
    ----------
    problem:
        The architecture / WLD / budget / targets bundle.
    solver:
        ``"dp"`` (exact, default) or ``"greedy"`` (the Figure 2
        baseline).  The brute-force optimum of tiny instances is
        :func:`~repro.core.exhaustive.solve_rank_exhaustive`, called on
        the problem's tables directly.
    bunch_size:
        Paper Section 5.1 bunching: cap on wires per coarse group (the
        paper uses 10000 for its 1M-gate studies).
    max_groups:
        Paper footnote-7 binning: cap on the number of distinct coarse
        lengths.
    repeater_units:
        Budget cells for the repeater-area discretization.
    collect_witness:
        DP only: also reconstruct the winning prefix assignment.
    deadline:
        Optional absolute ``time.monotonic()`` wall-clock deadline.
        It is checked once after the table build, and the DP solver
        also checks it cooperatively inside its main loop.  Raises
        :class:`~repro.errors.DeadlineExceeded` when it has passed.
    cache:
        Optional :class:`~repro.core.precompute.PrecomputeCache`: reuse
        coarsened WLDs and assignment tables across value-identical
        requests (sweep points, corner retries, search revisits).

    Returns
    -------
    RankResult
    """
    if solver not in SOLVERS:
        raise RankComputationError(
            f"unknown solver {solver!r}; choose from {SOLVERS}"
        )
    tables, error_bound = problem.tables(
        bunch_size=bunch_size, max_groups=max_groups, cache=cache
    )
    check_deadline(deadline, where="compute_rank (after table build)")

    raw: RawSolution
    if solver == "dp":
        raw = solve_rank_dp(
            tables,
            repeater_units=repeater_units,
            collect_witness=collect_witness,
            deadline=deadline,
        )
    else:
        raw = solve_rank_greedy(tables)

    total = problem.wld.total_wires
    return RankResult(
        rank=raw.rank,
        normalized=raw.rank / total if total else 0.0,
        total_wires=total,
        fits=raw.fits,
        error_bound=error_bound if raw.fits else 0,
        solver=solver,
        stats=raw.stats,
        witness=raw.witness,
    )
