"""Analysis harness: the paper's performance studies (Section 5).

* :mod:`repro.analysis.sweep` — the four Table 4 sweeps (ILD
  permittivity K, Miller factor M, clock frequency C, repeater
  fraction R) and a generic sweep engine,
* :mod:`repro.analysis.sensitivity` — equivalence analysis between
  knobs (the "42% Miller ~= 38% permittivity" headline),
* :mod:`repro.analysis.compare` — cross-node / cross-design baselines,
* :mod:`repro.analysis.coarsening` — bunching accuracy/runtime study
  (Section 5.1).
"""

from .coarsening import CoarseningPoint, coarsening_study
from .corners import Corner, CornerReport, STANDARD_CORNERS, apply_corner, rank_across_corners
from .roadmap import RoadmapPoint, materials_shortfall, roadmap_study
from .slack import (
    GroupSlack,
    SlackSummary,
    binding_constraint,
    slack_profile,
    summarize_slack,
)
from .compare import NodeBaseline, compare_nodes
from .sensitivity import (
    EquivalencePoint,
    equivalent_reduction,
    miller_permittivity_equivalence,
)
from .sweep import (
    SweepPoint,
    SweepResult,
    sweep_clock,
    sweep_miller,
    sweep_permittivity,
    sweep_repeater_fraction,
    sweep_tier_geometry,
    PAPER_TABLE4_K,
    PAPER_TABLE4_M,
    PAPER_TABLE4_C,
    PAPER_TABLE4_R,
)

__all__ = [
    "SweepPoint",
    "SweepResult",
    "sweep_permittivity",
    "sweep_miller",
    "sweep_clock",
    "sweep_repeater_fraction",
    "sweep_tier_geometry",
    "PAPER_TABLE4_K",
    "PAPER_TABLE4_M",
    "PAPER_TABLE4_C",
    "PAPER_TABLE4_R",
    "EquivalencePoint",
    "equivalent_reduction",
    "miller_permittivity_equivalence",
    "NodeBaseline",
    "compare_nodes",
    "CoarseningPoint",
    "coarsening_study",
    "Corner",
    "CornerReport",
    "STANDARD_CORNERS",
    "apply_corner",
    "rank_across_corners",
    "RoadmapPoint",
    "roadmap_study",
    "materials_shortfall",
    "GroupSlack",
    "SlackSummary",
    "slack_profile",
    "binding_constraint",
    "summarize_slack",
]
