"""Rank metric core: problem definition and solvers.

* :mod:`repro.core.problem` — :class:`~repro.core.problem.RankProblem`
  bundling architecture, die, WLD, and target model,
* :mod:`repro.core.dp` — the optimized dynamic program (exact at wire-
  group granularity, exploiting the prefix structure of the paper's
  Eq. (1)),
* :mod:`repro.core.greedy` — the greedy top-down baseline the paper's
  Figure 2 proves suboptimal,
* :mod:`repro.core.exhaustive` — brute force over all monotone
  assignments (tiny instances: the Figure 2 optimum and the optimality
  oracle of the tests),
* :mod:`repro.core.rank` — the public :func:`~repro.core.rank.compute_rank`
  entry point and result types,
* :mod:`repro.core.scenarios` — builders for the paper's experimental
  setups (Table 2 baselines).

The test-only oracles live beside the tests: the faithful
wire-at-a-time DP of Algorithms 1-5 (``tests/reference_dp.py``), the
scalar DP pair loop (``tests/dp_oracle.py``) and the independent
witness checker (``tests/witness_check.py``).
"""

from .curve import BudgetRankCurve, solve_budget_rank_curve
from .dp import solve_rank_dp
from .exhaustive import solve_rank_exhaustive
from .greedy import solve_rank_greedy
from .precompute import PrecomputeCache
from .problem import RankProblem
from .rank import RankResult
from .scenarios import configure_davis_cache, davis_cache_info

__all__ = [
    "PrecomputeCache",
    "RankProblem",
    "RankResult",
    "solve_rank_dp",
    "BudgetRankCurve",
    "solve_budget_rank_curve",
    "solve_rank_greedy",
    "solve_rank_exhaustive",
    "configure_davis_cache",
    "davis_cache_info",
]
