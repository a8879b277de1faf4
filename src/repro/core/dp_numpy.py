"""Vectorized (NumPy) transition kernels for the rank DP.

Same recurrence and state space as the scalar loop in
:mod:`repro.core.dp`, but one *whole layer-pair* of work per kernel
call instead of one ``(b, r)`` state at a time:

* every strict-improvement source state of ``F[pair-1]`` is located
  with one boolean scan,
* all their prefix extensions are flattened into one ragged candidate
  array (``repeat``/``cumsum``/``arange``) and scatter-minimized into
  ``F[pair]`` with ``np.minimum.at``; infeasible candidates are routed
  to a dummy overflow cell instead of compressed away, so the hot path
  never boolean-indexes a multi-million-element array,
* witness parents are *not* tracked during the forward pass — the
  kernel retains each pair's pre-cummin ``F`` table and compact state
  arrays, and :func:`_recover_parents` re-derives the parent of the
  one cell per pair the backward walk actually visits,
* the rank-candidate scan runs level-major — highest end group first
  across *all* states — with a vectorized
  :func:`~repro.assign.greedy_assign.pack_required_leftover` threshold
  test pruning provably-failing candidates before any scalar
  :func:`~repro.assign.greedy_assign.pack_suffix` call.

Exactness contract (enforced by ``tests/core/test_backends.py`` and
``tests/core/test_cross_validation.py``): ranks, witnesses, and the
deterministic ``SolverStats`` counters (``rows``, ``states_explored``,
``transitions``) are identical to the python backend.  This holds
bit-for-bit, not just approximately, because every floating-point
quantity (capacity, cell cost, repeater count, leftover) is computed by
the same sequence of IEEE operations as the scalar loop; candidate
*order* is preserved (states row-major in ``(b, r)``, ends ascending),
so equal-value tie-breaks resolve to the same winner.  The pack
accounting (``pack_checks`` / ``pack_successes`` / ``pack_pruned``)
measures this backend's own pruning schedule and legitimately differs.

The level-major rank scan is sound for the same reason the scalar
memo is: for a fixed (end group, pair), suffix feasibility is a
monotone threshold in the top pair's leftover, and the threshold is
monotone non-decreasing in the prefix repeater count ``z`` — so the
threshold computed at the *smallest* ``z`` of a level lower-bounds
every candidate, and candidates below it (with the same conservative
``1 - 1e-9`` margin the scalar memo uses) cannot pack.  A success at
the highest surviving level ends the pair: lower levels can only
produce smaller ranks.
"""

from __future__ import annotations

import math
import time
from typing import List, Optional, Tuple

import numpy as np

from ..assign.greedy_assign import pack_required_leftover, pack_suffix
from ..assign.tables import AssignmentTables
from ..obs.metrics import metrics_enabled as _metrics_enabled
from ..obs.metrics import observe as _obs_observe
from .discretize import CEIL_EPS
from .dp import check_deadline

#: Conservative relative margin for threshold pruning — identical to the
#: scalar backend's memo margin, so near-tie leftovers fall through to a
#: real pack call on both backends.
_PRUNE_MARGIN = 1.0 - 1e-9


def solve_pairs_numpy(
    tables: AssignmentTables,
    disc,
    stats,
    collect_witness: bool,
    deadline: Optional[float],
):
    """Run the DP pair loop with whole-pair vectorized kernels.

    Returns ``(best_rank, best_trace, parent_b, parent_r)`` exactly as
    :func:`repro.core.dp._solve_pairs_python` does.
    """
    num_units = disc.num_units
    unit_area = disc.unit_area
    num_groups = tables.num_groups
    num_pairs = tables.num_pairs
    cum_wires = tables.cum_wires
    vias = tables.vias_per_wire
    routing = tables.routing_capacity

    inf = math.inf
    shape = (num_groups + 1, num_units + 1)
    width = num_units + 1
    size = shape[0] * width
    f_prev = np.full(shape, inf)
    f_prev[0, 0] = 0.0
    f_prev = np.minimum.accumulate(f_prev, axis=1)

    best_rank = 0
    best_trace: Optional[Tuple[int, int, int, int]] = None  # (pair, b, e, r_pred)
    # Per-pair (bs, rs, zs, e_hi, f_new) snapshots for the lazy
    # backward parent recovery; only kept when a witness is requested.
    snapshots: List[Tuple[np.ndarray, ...]] = []
    transition_s = 0.0
    rank_scan_s = 0.0

    for pair in range(num_pairs):
        stats.rows += num_groups + 1
        check_deadline(deadline, where=f"dp pair {pair} (numpy kernel)")
        t0 = time.perf_counter()

        cum_area = tables.cum_wire_area[pair]
        cum_rep = tables.cum_rep_area[pair]
        cum_ins = tables.cum_inserted[pair]
        delay_limit = tables.next_infeasible[pair]
        via_area = float(tables.via_area[pair])

        # --- Transition sources: strict-improvement states of f_prev.
        # f_prev is cummin'd over r (non-increasing rows), so "value
        # strictly better than every smaller budget" is exactly a
        # strict decrease from the left neighbour.
        use = np.isfinite(f_prev)
        use[:, 1:] &= f_prev[:, 1:] < f_prev[:, :-1]
        bs, rs = np.nonzero(use)  # row-major == the scalar loop's order
        stats.states_explored += len(bs)

        # F[pair] lives in a flat buffer with one extra overflow cell;
        # infeasible candidates scatter there and are never read back.
        flat = np.full(size + 1, inf)
        f_new = flat[:size].reshape(shape)

        scan_es = scan_nz = scan_left = scan_b = scan_r = None
        if len(bs):
            zs = f_prev[bs, rs]
            wires_above = cum_wires[bs].astype(float)
            capacity = np.maximum(
                0.0, routing - (zs + vias * wires_above) * via_area
            )

            # Largest prefix extension each state can hold by area,
            # capped by the delay wall.
            e_hi = (
                np.searchsorted(
                    cum_area, cum_area[bs] + capacity * (1 + 1e-12), side="right"
                )
                - 1
            )
            e_hi = np.minimum(e_hi, delay_limit[bs])
            keep = e_hi >= bs
            bs, rs, zs, capacity, e_hi = (
                bs[keep], rs[keep], zs[keep], capacity[keep], e_hi[keep]
            )

        total = 0
        if len(bs):
            # Ragged flatten: candidate c of state s extends the prefix
            # to end group es[c] in [bs[s], e_hi[s]].  Per-state scalars
            # are broadcast with sequential np.repeat — never a random
            # gather — and nothing is compressed until the (tiny)
            # rank-scan subset below.
            lens = e_hi - bs + 1
            offsets = np.concatenate(([0], np.cumsum(lens)))
            total = int(offsets[-1])
            ar = np.arange(total)
            es = ar - np.repeat(offsets[:-1] - bs, lens)

            # Cell cost of the slice [b, e): same IEEE ops as
            # RepeaterDiscretization.slice_units — subtract the
            # *state's* cumulative (repeated), divide, epsilon-ceil.
            with np.errstate(invalid="ignore"):
                areas = cum_rep[es] - np.repeat(cum_rep[bs], lens)
                if math.isinf(unit_area):
                    du = np.where(areas > 0.0, np.inf, 0.0)
                else:
                    du = np.ceil(areas / unit_area - CEIL_EPS)
                    du = np.where(areas <= 0.0, 0.0, du)
                # nan (poisoned slice) and inf both fail the budget
                # test below, exactly like the scalar inf mapping.
                rs_rep = np.repeat(rs, lens)
                nr = rs_rep + du
                valid = nr <= num_units
                stats.transitions += int(np.count_nonzero(valid))

                nz = np.repeat(zs, lens) + (
                    cum_ins[es] - np.repeat(cum_ins[bs], lens)
                )
                # Scatter targets; infeasible candidates go to the
                # overflow cell `size` (cast garbage from inf/nan is
                # overwritten before use).
                lin = es * width
                lin += nr.astype(np.int64)
            np.copyto(lin, size, where=~valid)
            # Their cost may be nan (inf - inf in cum_ins); the overflow
            # cell is never read, so give it a quiet inf instead.
            np.copyto(nz, inf, where=~valid)

            # Scatter-min all candidates into F[pair] at once.  The
            # value is order-independent; _recover_parents re-derives
            # the scalar loop's strict-improvement winner (the first
            # candidate in processing order attaining the min) for the
            # cells the witness walk visits.
            np.minimum.at(flat, lin, nz)

            # --- Rank candidates: only ends whose cumulative wire
            # count beats the running best can improve the rank, and
            # cum_wires is increasing — so the filter is a pure index
            # threshold, applied *before* any compression.
            thr = int(np.searchsorted(cum_wires, best_rank, side="right"))
            scan_idx = np.flatnonzero(valid & (es >= thr))
            if len(scan_idx):
                sid_s = np.searchsorted(offsets, scan_idx, side="right") - 1
                scan_es = es[scan_idx]
                scan_nz = nz[scan_idx]
                scan_b = bs[sid_s]
                scan_r = rs[sid_s]
                scan_left = capacity[sid_s] - (
                    cum_area[scan_es] - cum_area[scan_b]
                )

        transition_s += time.perf_counter() - t0

        # --- Rank candidates, level-major: highest end group first.
        t1 = time.perf_counter()
        if scan_es is not None:
            hit = _scan_rank_levels(
                tables, stats, deadline, pair, best_rank,
                scan_es, scan_nz, scan_left, scan_b, scan_r,
            )
            if hit is not None:
                best_rank, best_trace = hit
        rank_scan_s += time.perf_counter() - t1

        # --- Close the pair: cummin over the budget axis.
        if collect_witness:
            snapshots.append((bs, rs, zs, e_hi, f_new) if len(bs) else None)
        f_prev = np.minimum.accumulate(f_new, axis=1)

    if _metrics_enabled():
        _obs_observe("solver.dp.kernel.transition_s", transition_s)
        _obs_observe("solver.dp.kernel.rank_scan_s", rank_scan_s)

    parent_b: List = []
    parent_r: List = []
    if collect_witness and best_trace is not None:
        parent_b, parent_r = _recover_parents(tables, disc, snapshots, best_trace)
    return best_rank, best_trace, parent_b, parent_r


def _recover_parents(
    tables: AssignmentTables,
    disc,
    snapshots: List[Optional[Tuple[np.ndarray, ...]]],
    best_trace: Tuple[int, int, int, int],
):
    """Re-derive parent pointers along the winning path only.

    The witness walk in :func:`repro.core.dp._reconstruct_witness`
    reads exactly one ``parent[p][b, r]`` cell per pair, so instead of
    attributing parents to every DP cell during the forward pass the
    kernel retains per-pair snapshots and this function answers the few
    queries after the fact, by the same two rules the scalar loop
    applies eagerly:

    * the cummin source of ``(b, r)`` is the *last* column ``c <= r``
      whose pre-cummin value attains the running minimum (a tie keeps
      its own column's parent);
    * the parent of a pre-cummin cell is the *first* transition
      candidate in processing order (states row-major in ``(b, r)``)
      attaining its value.

    Returns ``(parent_b, parent_r)`` lists of dicts keyed ``(b, r)``,
    drop-in compatible with the dense arrays' ``[b, r]`` indexing for
    the cells the walk visits.
    """
    pair_t, b_t, _e_t, r_t = best_trace
    unit_area = disc.unit_area
    parent_b: List[dict] = [dict() for _ in range(pair_t)]
    parent_r: List[dict] = [dict() for _ in range(pair_t)]

    cur_b, cur_r = b_t, r_t
    for p in range(pair_t - 1, -1, -1):
        pb_val = pr_val = -1
        snap = snapshots[p]
        if snap is not None:
            bs, rs, zs, e_hi, f_new = snap
            row = f_new[cur_b]
            runmin = np.minimum.accumulate(row[: cur_r + 1])
            att = np.flatnonzero(row[1 : cur_r + 1] <= runmin[:cur_r])
            c = int(att[-1]) + 1 if len(att) else 0
            value = row[c]

            cum_rep = tables.cum_rep_area[p]
            cum_ins = tables.cum_inserted[p]
            cand = np.flatnonzero((bs <= cur_b) & (e_hi >= cur_b))
            if len(cand) and math.isfinite(value):
                sb = bs[cand]
                with np.errstate(invalid="ignore"):
                    areas = cum_rep[cur_b] - cum_rep[sb]
                    if math.isinf(unit_area):
                        du = np.where(areas > 0.0, np.inf, 0.0)
                    else:
                        du = np.ceil(areas / unit_area - CEIL_EPS)
                        du = np.where(areas <= 0.0, 0.0, du)
                    nr = rs[cand] + du
                    nz = zs[cand] + (cum_ins[cur_b] - cum_ins[sb])
                    hits = np.flatnonzero((nr == c) & (nz == value))
                if len(hits):
                    i = int(cand[hits[0]])
                    pb_val = int(bs[i])
                    pr_val = int(rs[i])
        parent_b[p][cur_b, cur_r] = pb_val
        parent_r[p][cur_b, cur_r] = pr_val
        if pb_val < 0:
            break  # the walk raises on the -1 it is about to read
        cur_b, cur_r = pb_val, pr_val
    return parent_b, parent_r


def _scan_rank_levels(
    tables: AssignmentTables,
    stats,
    deadline: Optional[float],
    pair: int,
    best_rank: int,
    es_v: np.ndarray,
    nz_v: np.ndarray,
    leftover_v: np.ndarray,
    b_v: np.ndarray,
    r_v: np.ndarray,
):
    """Find the pair's best rank candidate that actually packs.

    Inputs are pre-filtered to levels strictly above ``best_rank``.
    Scans end-group levels in descending order; within a level,
    candidates keep the transition kernel's processing order (states
    row-major in ``(b, r)``), so the first packing candidate is the
    same one the scalar loop's running-best scan would have committed.
    Returns ``(rank, (pair, b, e, r))`` for the first success, or
    ``None`` when no candidate on this pair beats ``best_rank``.
    """
    cum_wires = tables.cum_wires

    # Group candidates by level, preserving order within each level.
    # Levels fit comfortably in int32 and numpy's stable argsort uses
    # radix sort for integer keys, so this is O(n) in practice.
    order = np.argsort(es_v.astype(np.int32), kind="stable")
    sorted_es = es_v[order]
    levels, starts = np.unique(sorted_es, return_index=True)
    bounds = np.append(starts, len(sorted_es))

    for li in range(len(levels) - 1, -1, -1):
        e = int(levels[li])
        wires_e = int(cum_wires[e])
        if wires_e <= best_rank:
            break  # descending levels: every remaining one is smaller
        check_deadline(deadline, where=f"dp pair {pair}, rank level {e}")
        idxs = order[bounds[li]:bounds[li + 1]]
        cz = nz_v[idxs]
        cleft = leftover_v[idxs]

        # Vectorized threshold prune: the required leftover at the
        # level's smallest z lower-bounds every candidate's threshold.
        req0 = pack_required_leftover(
            tables, e, pair, wires_e, float(cz.min())
        )
        alive = cleft >= req0 * _PRUNE_MARGIN
        stats.pack_pruned += int(len(idxs) - alive.sum())

        while True:
            cand = np.flatnonzero(alive)
            if cand.size == 0:
                break
            i = int(cand[0])
            stats.pack_checks += 1
            if pack_suffix(
                tables,
                e,
                pair,
                wires_e,
                float(cz[i]),
                top_pair_leftover=float(cleft[i]),
            ):
                stats.pack_successes += 1
                j = idxs[i]
                return wires_e, (pair, int(b_v[j]), e, int(r_v[j]))
            alive[i] = False
            # Tighten: the exact threshold at the failed z prunes every
            # candidate it dominates (z' >= z needs at least as much
            # leftover), with the same conservative margin.
            req = pack_required_leftover(tables, e, pair, wires_e, float(cz[i]))
            pruned = alive & (cz >= cz[i]) & (cleft < req * _PRUNE_MARGIN)
            stats.pack_pruned += int(pruned.sum())
            alive &= ~pruned
    return None
