"""repro — reproduction of the interconnect-architecture *rank* metric.

Implements Dasgupta, Kahng & Muddu, "A Novel Metric for Interconnect
Architecture Performance" (DATE 2003) end to end: the Davis stochastic
wire length distribution, geometry-driven RC extraction, the
Otten--Brayton repeatered delay model, via-blockage-aware wire
assignment, and the dynamic program that computes the rank of an
interconnect architecture — plus the greedy baseline, coarsening
(bunching / binning), and the analysis harness that regenerates every
table and figure of the paper.

Quickstart::

    from repro import paper_baseline_130nm, compute_rank

    problem = paper_baseline_130nm()
    result = compute_rank(problem, bunch_size=10_000)
    print(result.summary())
"""

from .arch import (
    ArchitectureSpec,
    DieModel,
    InterconnectArchitecture,
    LayerPair,
    build_architecture,
)
from .core import (
    RankProblem,
    RankResult,
    solve_rank_dp,
    solve_rank_exhaustive,
    solve_rank_greedy,
)
from .core.scenarios import baseline_problem, paper_baseline_130nm
from . import obs
from .optimize import DesignSpace, optimize_architecture
from .errors import (
    AssignmentError,
    CheckpointError,
    ConfigurationError,
    DeadlineExceeded,
    DelayModelError,
    RankComputationError,
    ReproError,
    RunnerError,
    UnitsError,
    WLDError,
)
from .runner import (
    BatchOutcome,
    PointFailure,
    PointSpec,
    RetryPolicy,
    RunJournal,
    run_batch,
)
from .tech import (
    NODE_90NM,
    NODE_130NM,
    NODE_180NM,
    DeviceParameters,
    MetalRule,
    TechnologyNode,
    ViaRule,
    available_nodes,
    get_node,
)
from .wld import (
    DavisParameters,
    WireLengthDistribution,
    bin_wld,
    bunch_wld,
    davis_wld,
)

# The stable facade.  The bare name ``api.optimize`` is NOT re-exported
# at top level: that name belongs to the ``repro.optimize`` subpackage,
# and shadowing it would break ``import repro.optimize.search``-style
# imports.  The facade-named ``optimize_rank`` alias (same callable) is
# what the top level carries instead.
from . import api
from .api import (
    SCHEMA_VERSION,
    SOLVERS,
    CornersRequest,
    FaultSchedule,
    FaultSpec,
    OptimizeRequest,
    PrecomputeCache,
    RankRequest,
    RankResponse,
    SweepRequest,
    budget_curve,
    compute_rank,
    corners,
    load_node,
    optimize_rank,
    parse_fault_schedule,
    solve_rank_request,
    sweep,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # architecture
    "ArchitectureSpec",
    "DieModel",
    "InterconnectArchitecture",
    "LayerPair",
    "build_architecture",
    # core
    "RankProblem",
    "RankResult",
    "compute_rank",
    "baseline_problem",
    "paper_baseline_130nm",
    "solve_rank_dp",
    "solve_rank_greedy",
    "solve_rank_exhaustive",
    # stable facade (repro.api); the bare ``api.optimize`` stays
    # namespaced to avoid shadowing the repro.optimize subpackage —
    # ``optimize_rank`` is the top-level spelling of the same callable
    "api",
    "SOLVERS",
    "sweep",
    "corners",
    "optimize_rank",
    "budget_curve",
    "load_node",
    "PrecomputeCache",
    "FaultSchedule",
    "FaultSpec",
    "parse_fault_schedule",
    # v1 wire schema (repro.schema)
    "SCHEMA_VERSION",
    "RankRequest",
    "SweepRequest",
    "CornersRequest",
    "OptimizeRequest",
    "RankResponse",
    "solve_rank_request",
    # technology
    "TechnologyNode",
    "MetalRule",
    "ViaRule",
    "DeviceParameters",
    "NODE_180NM",
    "NODE_130NM",
    "NODE_90NM",
    "available_nodes",
    "get_node",
    # WLD
    "WireLengthDistribution",
    "DavisParameters",
    "davis_wld",
    "bunch_wld",
    "bin_wld",
    # extensions
    "DesignSpace",
    "optimize_architecture",
    # observability
    "obs",
    # fault-tolerant run harness
    "BatchOutcome",
    "PointFailure",
    "PointSpec",
    "RetryPolicy",
    "RunJournal",
    "run_batch",
    # errors
    "ReproError",
    "ConfigurationError",
    "UnitsError",
    "WLDError",
    "DelayModelError",
    "AssignmentError",
    "RankComputationError",
    "RunnerError",
    "CheckpointError",
    "DeadlineExceeded",
]
