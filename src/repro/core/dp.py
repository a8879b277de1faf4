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
faithful wire-at-a-time reference and with exhaustive search).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

import numpy as np

from ..assign.greedy_assign import pack_required_leftover, pack_suffix
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
    from .dp_numpy import solve_pairs_numpy

    with _span(
        "solve_rank_dp",
        groups=tables.num_groups,
        pairs=tables.num_pairs,
        units=repeater_units,
    ):
        return _solve_rank_dp_impl(
            tables,
            repeater_units=repeater_units,
            collect_witness=collect_witness,
            deadline=deadline,
            solve_pairs=solve_pairs_numpy,
        )


def _solve_rank_dp_impl(
    tables: AssignmentTables,
    repeater_units: int,
    collect_witness: bool,
    deadline: Optional[float],
    solve_pairs: Callable,
) -> RawSolution:
    """Discretize, check Definition 3's fit, run ``solve_pairs`` over
    the layer-pairs, and rebuild the witness.

    ``solve_pairs`` is :func:`repro.core.dp_numpy.solve_pairs_numpy` in
    the product; tests pass the scalar :func:`_solve_pairs_python` to
    compare the two field for field.
    """
    start_time = time.perf_counter()
    stats = SolverStats(solver="dp")

    disc = discretize_repeaters(tables, repeater_units)

    # Definition 3: rank 0 outright if the WLD does not fit at all.
    fits = pack_suffix(tables, 0, 0, 0, 0.0)
    if not fits:
        stats.runtime_seconds = time.perf_counter() - start_time
        _publish_dp_stats(stats)
        return RawSolution(rank=0, fits=False, stats=stats)

    best_rank, best_trace, parent_b, parent_r = solve_pairs(
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


def _solve_pairs_python(
    tables: AssignmentTables,
    disc,
    stats: SolverStats,
    collect_witness: bool,
    deadline: Optional[float],
):
    """Scalar pair loop: the test oracle for ``solve_pairs_numpy``.

    It visits one ``(b, r)`` state at a time and is kept only so tests
    can check the NumPy kernel's ranks, witnesses and deterministic
    counters bit for bit on bunched, multi-wire-group problems (see
    :func:`_solve_rank_dp_impl`); no product path calls it.

    Returns ``(best_rank, best_trace, parent_b, parent_r)`` with
    ``best_trace = (pair, b, e, r_pred)`` of the winning transition, or
    ``None`` when no prefix meets delay.
    """
    num_units = disc.num_units
    num_groups = tables.num_groups
    num_pairs = tables.num_pairs
    cum_wires = tables.cum_wires

    best_rank = 0
    best_trace: Optional[Tuple[int, int, int, int]] = None  # (pair, b, e, r_pred)

    inf = math.inf
    shape = (num_groups + 1, num_units + 1)
    f_prev = np.full(shape, inf)
    f_prev[0, 0] = 0.0
    f_prev = np.minimum.accumulate(f_prev, axis=1)

    keep_parents = collect_witness
    parent_b: List[np.ndarray] = []
    parent_r: List[np.ndarray] = []

    for pair in range(num_pairs):
        f_new = np.full(shape, inf)
        if keep_parents:
            pb = np.full(shape, -1, dtype=np.int32)
            pr = np.full(shape, -1, dtype=np.int32)
        cum_area = tables.cum_wire_area[pair]
        cum_ins = tables.cum_inserted[pair]
        delay_limit = tables.next_infeasible[pair]

        # Failed-pack memo for this pair: end group -> list of
        # (repeaters_above, required_leftover) thresholds.  For a fixed
        # (e, z) the suffix pack is a monotone threshold in the top
        # pair's leftover (the lower pairs never see it), and the
        # threshold only grows with z (more via blockage shrinks every
        # lower pair), so leftover < required(z0) with z >= z0 proves
        # failure without re-packing.  The threshold costs one extra
        # pack-shaped pass, so it is computed lazily on the *second*
        # failure at the same (e, z) — one-shot failures stay cheap.
        pack_thresholds: dict = {}
        pack_failed_once: set = set()

        for b in range(num_groups + 1):
            stats.rows += 1
            check_deadline(deadline, where=f"dp pair {pair}, group {b}")
            row = f_prev[b]
            finite = np.isfinite(row)
            if not finite.any():
                continue
            # Only transition from budgets where the value strictly
            # improves: equal-z states at higher r are dominated (the
            # final cummin over r restores their successors).
            values = row.copy()
            values[~finite] = inf
            use = np.zeros(num_units + 1, dtype=bool)
            prev_best = inf
            for r in range(num_units + 1):
                if values[r] < prev_best:
                    use[r] = True
                    prev_best = values[r]
            for r in np.flatnonzero(use):
                z = float(row[r])
                stats.states_explored += 1
                capacity = tables.capacity(pair, float(cum_wires[b]), z)

                # Largest prefix extension the pair can hold by area.
                e_hi = int(
                    np.searchsorted(
                        cum_area, cum_area[b] + capacity * (1 + 1e-12), side="right"
                    )
                    - 1
                )
                e_hi = min(e_hi, int(delay_limit[b]))
                if e_hi < b:
                    continue

                es = np.arange(b, e_hi + 1)
                du = disc.slice_units_spans(pair, b, es)
                valid = np.isfinite(du) & (r + du <= num_units)
                if not valid.any():
                    continue
                es = es[valid]
                nr = (r + du[valid]).astype(np.int64)
                nz = z + (cum_ins[es] - cum_ins[b])
                stats.transitions += len(es)

                target = f_new[es, nr]
                improve = nz < target
                if improve.any():
                    f_new[es[improve], nr[improve]] = nz[improve]
                    if keep_parents:
                        pb[es[improve], nr[improve]] = b
                        pr[es[improve], nr[improve]] = r

                # Rank candidates: largest e first; stop at the first
                # success (smaller e can only give a smaller rank).
                leftover = capacity - (cum_area[es] - cum_area[b])
                for idx in range(len(es) - 1, -1, -1):
                    e = int(es[idx])
                    if int(cum_wires[e]) <= best_rank:
                        break
                    z_here = float(nz[idx])
                    leftover_here = float(leftover[idx])
                    thresholds = pack_thresholds.get(e)
                    if thresholds is not None and any(
                        z_here >= z0 and leftover_here < req * (1.0 - 1e-9)
                        for z0, req in thresholds
                    ):
                        # Margin keeps the memo conservative: near-tie
                        # leftovers fall through to the real pack, so
                        # ulp disagreements cannot change the answer.
                        stats.pack_pruned += 1
                        continue
                    stats.pack_checks += 1
                    if pack_suffix(
                        tables,
                        e,
                        pair,
                        int(cum_wires[e]),
                        z_here,
                        top_pair_leftover=leftover_here,
                    ):
                        stats.pack_successes += 1
                        best_rank = int(cum_wires[e])
                        best_trace = (pair, b, e, r)
                        break
                    key = (e, z_here)
                    if key in pack_failed_once:
                        pack_failed_once.discard(key)
                        pack_thresholds.setdefault(e, []).append(
                            (
                                z_here,
                                pack_required_leftover(
                                    tables, e, pair, int(cum_wires[e]), z_here
                                ),
                            )
                        )
                    else:
                        pack_failed_once.add(key)

        if keep_parents:
            # Cummin over the budget axis with parent propagation, so
            # every finite post-cummin state has an exact provenance.
            for r in range(1, num_units + 1):
                mask = f_new[:, r] > f_new[:, r - 1]
                f_new[mask, r] = f_new[mask, r - 1]
                pb[mask, r] = pb[mask, r - 1]
                pr[mask, r] = pr[mask, r - 1]
            f_prev = f_new
            parent_b.append(pb)
            parent_r.append(pr)
        else:
            f_prev = np.minimum.accumulate(f_new, axis=1)

    return best_rank, best_trace, parent_b, parent_r


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
