"""Wire assignment engines.

This package implements the precomputed tables the rank solvers run on
and the paper's M'' feasibility oracle:

* :mod:`repro.assign.tables` — per-(layer-pair, wire-group) areas,
  repeater demands and via footprints, computed once per problem,
* :mod:`repro.assign.greedy_assign` — the M'' oracle (paper Algorithm 5,
  optimal by its Lemma 1): pack the remaining wires bottom-up into the
  remaining layer-pairs *ignoring* delay, with via-blockage reservations
  for wires destined to higher pairs.
"""

from .greedy_assign import PairFill, pack_suffix, pack_suffix_detail
from .tables import AssignmentTables, build_tables

__all__ = [
    "AssignmentTables",
    "build_tables",
    "PairFill",
    "pack_suffix",
    "pack_suffix_detail",
]
