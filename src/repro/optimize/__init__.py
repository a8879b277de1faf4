"""Architecture optimization against the rank metric.

The paper's Section 6 proposes "direct optimization of interconnect
architectures according to our proposed metric, with the goal of
evaluating ITRS and foundry BEOL architectures".  This package
implements that programme:

* :mod:`repro.optimize.space` — enumerable design spaces over layer-pair
  allocations, dielectrics and Miller factors,
* :mod:`repro.optimize.search` — exhaustive evaluation, greedy hill
  climbing for larger spaces, and Pareto extraction (rank vs metal
  layer count).
"""

from .search import (
    CandidateResult,
    shielding_capacity_factor,
    OptimizationResult,
    evaluate_candidates_batch,
    hill_climb,
    optimize_architecture,
    pareto_front,
)
from .space import DesignSpace

__all__ = [
    "DesignSpace",
    "CandidateResult",
    "OptimizationResult",
    "evaluate_candidates_batch",
    "pareto_front",
    "hill_climb",
    "optimize_architecture",
    "shielding_capacity_factor",
]
