"""Rank metric core: problem definition and solvers.

* :mod:`repro.core.problem` — :class:`~repro.core.problem.RankProblem`
  bundling architecture, die, WLD, and target model,
* :mod:`repro.core.dp` — the optimized dynamic program (exact at wire-
  group granularity, exploiting the prefix structure of the paper's
  Eq. (1)),
* :mod:`repro.core.reference` — a faithful wire-at-a-time implementation
  of the paper's Algorithms 1-5, used to cross-validate the DP,
* :mod:`repro.core.greedy` — the greedy top-down baseline the paper's
  Figure 2 proves suboptimal,
* :mod:`repro.core.exhaustive` — brute force over all monotone
  assignments (tiny instances; the optimality oracle in tests),
* :mod:`repro.core.rank` — the public :func:`~repro.core.rank.compute_rank`
  entry point and result types,
* :mod:`repro.core.scenarios` — builders for the paper's experimental
  setups (Table 2 baselines).
"""

from .curve import BudgetRankCurve, solve_budget_rank_curve
from .dp import solve_rank_dp
from .exhaustive import solve_rank_exhaustive
from .greedy import solve_rank_greedy
from .precompute import PrecomputeCache
from .problem import RankProblem
from .rank import RankResult
from .reference import solve_rank_reference
from .scenarios import configure_davis_cache, davis_cache_info

__all__ = [
    "PrecomputeCache",
    "RankProblem",
    "RankResult",
    "solve_rank_dp",
    "BudgetRankCurve",
    "solve_budget_rank_curve",
    "solve_rank_greedy",
    "solve_rank_reference",
    "solve_rank_exhaustive",
    "configure_davis_cache",
    "davis_cache_info",
]
