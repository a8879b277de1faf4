"""Optimized dynamic program for rank computation.

This solver computes the exact rank (at wire-group granularity and
repeater-cell granularity) by exploiting the structure of the paper's
Eq. (1) recurrence: the only predecessor states that matter are the
*all-meeting* ones ``M[i'_1, j, r_1, i'_1]``, so the set of wires meeting
their targets is always a prefix of the rank-ordered WLD.  The state
space collapses from the paper's 4-D boolean table to

    F[p][b][r] = minimal repeater count over assignments of the first
                 ``b`` wire groups to layer-pairs ``0..p`` such that all
                 of them meet their targets using at most ``r`` budget
                 cells (infinity if infeasible)

— tracking the *minimal* repeater count is sound because repeaters only
ever hurt downstream feasibility (via blockage in lower pairs), so fewer
dominates.  A transition extends the prefix into the next pair (the M'
oracle), and each transition is closed into a rank candidate by packing
the remaining wires bottom-up (the M'' oracle of Lemma 1) through the
transition pair's leftover capacity — exactly the role of the paper's
``i`` dimension.

The returned rank equals the paper algorithm's ``max i'`` (see
``tests/core/test_cross_validation.py``, which checks agreement with the
faithful wire-at-a-time reference of ``tests/reference_dp.py`` and with
exhaustive search).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from ..assign.greedy_assign import pack_suffix
from ..assign.tables import AssignmentTables
from ..errors import DeadlineExceeded, RankComputationError
from ..obs.metrics import inc as _obs_inc
from ..obs.metrics import metrics_enabled as _metrics_enabled
from ..obs.metrics import observe as _obs_observe
from ..obs.trace import span as _span
from .discretize import DEFAULT_REPEATER_UNITS, discretize_repeaters


def check_deadline(deadline: Optional[float], where: str = "solver") -> None:
    """Raise :class:`DeadlineExceeded` once ``time.monotonic()`` passes
    ``deadline`` (absolute seconds; ``None`` disables the check).

    This is the cooperative cancellation primitive the fault-tolerant
    runner relies on: long-running loops call it between units of work
    so a per-attempt wall-clock budget can interrupt a computation
    without killing the process.
    """
    _obs_inc("solver.deadline_checks")
    if deadline is not None and time.monotonic() > deadline:
        raise DeadlineExceeded(
            f"wall-clock deadline exceeded in {where} "
            f"(overran by {time.monotonic() - deadline:.3f} s)"
        )


@dataclass(frozen=True)
class WitnessSegment:
    """One layer-pair's slice of the delay-meeting prefix.

    Attributes
    ----------
    pair:
        0-based layer-pair index (0 = topmost).
    start_group, end_group:
        Rank-order group slice assigned to the pair (may be empty).
    repeater_cells:
        Budget cells consumed by the slice.
    repeaters:
        Repeaters physically inserted in the slice.
    """

    pair: int
    start_group: int
    end_group: int
    repeater_cells: int
    repeaters: int


@dataclass
class SolverStats:
    """Instrumentation of one solver run (all solvers share this type).

    ``runtime_seconds`` is wall-clock and excluded from equality: two
    runs of the same problem produce equal stats (the counters are
    deterministic) even though their timings differ — which is what
    lets a resumed sweep compare equal to an uninterrupted one.

    The ``rows`` / ``states_explored`` / ``transitions`` counters are
    shared with the scalar test oracle (asserted by
    ``tests/core/test_backends.py``); ``pack_checks`` /
    ``pack_successes`` / ``pack_pruned`` measure one implementation's
    own pruning work and are excluded from equality.
    """

    solver: str = ""
    states_explored: int = 0
    transitions: int = 0
    pack_checks: int = field(default=0, compare=False)
    pack_successes: int = field(default=0, compare=False)
    pack_pruned: int = field(default=0, compare=False)
    rows: int = 0
    runtime_seconds: float = field(default=0.0, compare=False)


#: SolverStats counters folded into the metrics registry after a DP
#: solve (under ``solver.dp.*``) — the single source of truth for both
#: ``obs.snapshot()`` and trace-file counter totals.
_DP_PUBLISHED_COUNTERS = (
    "rows",
    "states_explored",
    "transitions",
    "pack_checks",
    "pack_successes",
    "pack_pruned",
)


def _publish_dp_stats(stats: "SolverStats") -> None:
    """Fold one solve's counters into the registry (no-op when disabled).

    Publishing once per solve — not per row — keeps the DP inner loop
    free of registry calls, so the disabled-overhead budget holds.
    """
    if not _metrics_enabled():
        return
    _obs_inc("solver.dp.solves")
    for name in _DP_PUBLISHED_COUNTERS:
        _obs_inc(f"solver.dp.{name}", getattr(stats, name))
    _obs_observe("solver.dp.solve_s", stats.runtime_seconds)


@dataclass(frozen=True)
class RawSolution:
    """Solver-level result (wrapped by :class:`repro.core.rank.RankResult`).

    Attributes
    ----------
    rank:
        Number of wires in the maximal all-meeting prefix (the paper
        algorithm's returned ``i'``); 0 when the WLD does not fit.
    fits:
        Definition 3's condition: True iff all wires can be assigned
        ignoring delay.
    stats:
        Instrumentation counters.
    witness:
        Optional per-pair breakdown of the winning prefix.
    """

    rank: int
    fits: bool
    stats: SolverStats
    witness: Optional[Tuple[WitnessSegment, ...]] = None


def solve_rank_dp(
    tables: AssignmentTables,
    repeater_units: int = DEFAULT_REPEATER_UNITS,
    collect_witness: bool = False,
    deadline: Optional[float] = None,
) -> RawSolution:
    """Compute the rank of the architecture exactly (DP solver).

    Discretizes the budget, checks Definition 3's fit, runs the pair
    loop of :func:`repro.core.dp_numpy.solve_pairs_numpy` (looked up
    on that module at each call, which is where tests put the scalar
    oracle) and rebuilds the witness.

    Parameters
    ----------
    tables:
        Precomputed assignment tables for the problem.
    repeater_units:
        Number of cells the repeater budget is discretized into;
        solutions are conservative within one cell per (pair, group)
        block.
    collect_witness:
        Also reconstruct the winning prefix assignment.
    deadline:
        Optional absolute ``time.monotonic()`` instant; the DP raises
        :class:`~repro.errors.DeadlineExceeded` cooperatively (between
        group expansions) once it passes.

    Returns
    -------
    RawSolution
    """
    # Imported here: repro.core.dp_numpy imports check_deadline from
    # this module.
    from . import dp_numpy

    with _span(
        "solve_rank_dp",
        groups=tables.num_groups,
        pairs=tables.num_pairs,
        units=repeater_units,
    ):
        start_time = time.perf_counter()
        stats = SolverStats(solver="dp")

        disc = discretize_repeaters(tables, repeater_units)

        # Definition 3: rank 0 outright if the WLD does not fit at all.
        # The check walks every group, so a spent deadline stops first.
        check_deadline(deadline, where="dp fits check")
        fits = pack_suffix(tables, 0, 0, 0, 0.0)
        if not fits:
            stats.runtime_seconds = time.perf_counter() - start_time
            _publish_dp_stats(stats)
            return RawSolution(rank=0, fits=False, stats=stats)

        best_rank, best_trace, parent_b, parent_r = dp_numpy.solve_pairs_numpy(
            tables, disc, stats, collect_witness, deadline
        )

        witness = None
        if collect_witness and best_trace is not None:
            witness = _reconstruct_witness(
                tables, disc, parent_b, parent_r, best_trace
            )

        stats.runtime_seconds = time.perf_counter() - start_time
        _publish_dp_stats(stats)
        return RawSolution(rank=best_rank, fits=True, stats=stats, witness=witness)


def _reconstruct_witness(
    tables: AssignmentTables,
    disc,
    parent_b: List[np.ndarray],
    parent_r: List[np.ndarray],
    best_trace: Tuple[int, int, int, int],
) -> Tuple[WitnessSegment, ...]:
    """Walk parent pointers back from the winning transition."""
    pair, b, e, r = best_trace
    du = disc.slice_units(pair, b, e)
    if not math.isfinite(du):
        raise RankComputationError("winning transition lost its unit accounting")
    segments = [
        WitnessSegment(
            pair=pair,
            start_group=b,
            end_group=e,
            repeater_cells=int(du),
            repeaters=int(
                tables.cum_inserted[pair][e] - tables.cum_inserted[pair][b]
            ),
        )
    ]
    # The winning transition read state (b, r) after pairs 0..pair-1.
    cur_b, cur_r = b, r
    for p in range(pair - 1, -1, -1):
        pb = int(parent_b[p][cur_b, cur_r])
        pr = int(parent_r[p][cur_b, cur_r])
        if pb < 0:
            raise RankComputationError(
                f"witness reconstruction failed: no parent for state "
                f"(pair={p}, groups={cur_b}, cells={cur_r})"
            )
        du = disc.slice_units(p, pb, cur_b)
        segments.append(
            WitnessSegment(
                pair=p,
                start_group=pb,
                end_group=cur_b,
                repeater_cells=int(du),
                repeaters=int(
                    tables.cum_inserted[p][cur_b] - tables.cum_inserted[p][pb]
                ),
            )
        )
        cur_b, cur_r = pb, pr
    if cur_b != 0:
        raise RankComputationError(
            f"witness reconstruction ended at group {cur_b}, expected 0"
        )
    segments.reverse()
    return tuple(segments)
