"""Vectorized (NumPy) transition kernels for the rank DP.

Same recurrence and state space as the scalar test oracle
``_solve_pairs_python`` in :mod:`repro.core.dp`, but one *whole
layer-pair* of work per kernel call instead of one ``(b, r)`` state at
a time:

* the transition reads its source states as arrays ``(bs, rs, zs)``,
  not as a table: :func:`_close_pair` lists the few thousand finite
  cells of the pair's scatter buffer and keeps the strict-improvement
  records of each row, exactly the states a cummin over budgets would
  expose, then resets those cells for the next pair, so the solve
  allocates one dense buffer in all,
* their prefix extensions are expanded a run of whole states at a
  time, about ``_BLOCK`` candidates per run, with in-place ufuncs over
  cache-sized temporaries, and each run is scatter-minimized into
  ``F[pair]`` with ``np.minimum.at``; infeasible candidates are routed
  to a dummy overflow cell instead of compressed away, and the pair's
  multi-million candidates are never materialized at once; of each
  state only its last valid end group ``v_hi`` is kept, as its valid
  ends are a prefix of its range,
* witness parents are *not* tracked during the forward pass — the
  kernel retains each pair's finite cells ``(rows, cols, vals)`` and
  compact state arrays, and :func:`_recover_parents` rebuilds the one
  row per pair the backward walk reads and re-derives the parent of
  the one cell it visits,
* the rank-candidate scan runs level-major — highest end group first
  across *all* states — and :func:`_candidates` rebuilds a level's
  candidates only when the scan reaches it (bit-identical to the
  transition's), with a vectorized
  :func:`~repro.assign.greedy_assign.pack_required_leftover` threshold
  test pruning provably-failing candidates before any scalar
  :func:`~repro.assign.greedy_assign.pack_suffix` call.

The transition (:func:`_pair_transition`) is shared by two rank
reductions: one global best (:func:`solve_pairs_numpy`) and the best
per budget cell (:func:`solve_pairs_curve_numpy`, the budget curve).

Exactness contract (enforced by ``tests/core/test_backends.py``,
``tests/core/test_cross_validation.py`` and
``tests/core/test_curve.py``): ranks, witnesses, and the
deterministic ``SolverStats`` counters (``rows``, ``states_explored``,
``transitions``) are identical to the scalar oracle's.  This holds
bit-for-bit, not just approximately, because every floating-point
quantity (capacity, cell cost, repeater count, leftover) is computed by
the same sequence of IEEE operations as the scalar loop; candidate
*order* is preserved (states row-major in ``(b, r)``, ends ascending),
so equal-value tie-breaks resolve to the same winner.  The curve
shares those counters, and its ``ranks[c]`` equals the reference DP's
rank with ``c`` cells.  The pack accounting (``pack_checks`` /
``pack_successes`` / ``pack_pruned``) measures this kernel's own
pruning schedule and legitimately differs.

The level-major rank scan is sound for the same reason the scalar
memo is: for a fixed (end group, pair), suffix feasibility is a
monotone threshold in the top pair's leftover, and the threshold is
monotone non-decreasing in the prefix repeater count ``z`` — so the
threshold computed at the *smallest* ``z`` of a level lower-bounds
every candidate, and candidates below it (with the same conservative
``1 - 1e-9`` margin the scalar memo uses) cannot pack.  A success at
the highest surviving level ends the pair: lower levels can only
produce smaller ranks; in the curve's scan it ends only its level.
"""

from __future__ import annotations

import bisect
import math
import time
from collections import namedtuple
from typing import List, Optional, Tuple

import numpy as np

from ..assign.greedy_assign import pack_required_leftover, pack_suffix
from ..assign.tables import AssignmentTables
from ..obs.metrics import metrics_enabled as _metrics_enabled
from ..obs.metrics import observe as _obs_observe
from .discretize import CEIL_EPS
from .dp import check_deadline

#: Conservative relative margin for threshold pruning — identical to the
#: scalar oracle's memo margin, so near-tie leftovers fall through to a
#: real pack call in both.
_PRUNE_MARGIN = 1.0 - 1e-9


#: Candidates per run of source states in :func:`_pair_transition`: each
#: float64 temporary of a run is 128 KB, so the dozen a run keeps live
#: stay in a 2 MB L2 cache.
_BLOCK = 1 << 14

#: One pair's transition, as :func:`_pair_transition` returns it.
_PairTransition = namedtuple("_PairTransition", "bs rs zs capacity e_hi v_hi")


def _start(tables: AssignmentTables, disc):
    """The solve's scatter buffer and the first pair's source states.

    The buffer holds ``F[pair]`` row-major, ``(G+1) x (R+1)`` cells plus
    one overflow cell, all ``inf``; :func:`_close_pair` leaves it so
    after every pair.  Before the first pair only the empty prefix is
    reachable, for free: the one source ``(b, r, z) = (0, 0, 0.0)``.
    """
    flat = np.full((tables.num_groups + 1) * (disc.num_units + 1) + 1, math.inf)
    zero = np.zeros(1, dtype=np.int64)
    return flat, (zero, zero.copy(), np.zeros(1))


def _pair_transition(
    tables: AssignmentTables,
    disc,
    stats,
    flat: np.ndarray,
    sources: Tuple[np.ndarray, np.ndarray, np.ndarray],
    pair: int,
    deadline: Optional[float],
) -> _PairTransition:
    """Expand the source states ``(bs, rs, zs)`` of ``F[pair-1]`` into
    ``F[pair]``, scatter-minimized into ``flat`` (see :func:`_start`).

    ``bs, rs, zs, capacity, e_hi`` are the source states that extend at
    all; state ``s`` has one candidate per end group in
    ``[bs[s], e_hi[s]]``.  Its candidates within budget are those up to
    ``v_hi[s]`` (``bs[s] - 1`` when there are none): up to ``e_hi``,
    ``cum_rep`` is finite and non-decreasing (or ``inf`` from ``b`` on,
    when no end is valid), and IEEE subtract, divide and ceil are
    monotone, so the cell count never falls as the end group grows and
    the valid ends form a prefix of the range.  :func:`_candidates`
    rebuilds any of them on demand.
    """
    num_units = disc.num_units
    unit_area = disc.unit_area
    num_groups = tables.num_groups
    stats.rows += num_groups + 1

    cum_area = tables.cum_wire_area[pair]
    cum_rep = tables.cum_rep_area[pair]
    cum_ins = tables.cum_inserted[pair]
    delay_limit = tables.next_infeasible[pair]
    via_area = float(tables.via_area[pair])

    # Strict-improvement states of F[pair-1], row-major in (b, r) ==
    # the scalar loop's order.
    bs, rs, zs = sources
    stats.states_explored += len(bs)

    wires_above = tables.cum_wires[bs].astype(float)
    vias, routing = tables.vias_per_wire, tables.routing_capacity
    capacity = np.maximum(0.0, routing - (zs + vias * wires_above) * via_area)

    # Largest prefix extension each state can hold by area, capped by
    # the delay wall.  side="right" keeps every end whose area ties the
    # reach: a zero-capacity state (a pair saturated by vias) still
    # passes its prefix through with the empty extension e == b.
    e_hi = np.searchsorted(
        cum_area, cum_area[bs] + capacity * (1 + 1e-12), side="right"
    ) - 1
    # The cap only prunes: an end past the wall crosses the first
    # infeasible group, whose +inf repeater term poisons cum_rep, so
    # that candidate would fail the budget test below anyway.
    e_hi = np.minimum(e_hi, delay_limit[bs])
    keep = e_hi >= bs
    bs, rs, zs, capacity, e_hi = (a[keep] for a in (bs, rs, zs, capacity, e_hi))

    # F[pair] lives in a flat buffer with one extra overflow cell;
    # infeasible candidates scatter there and are never read back.
    width = num_units + 1
    size = len(flat) - 1

    # Candidate c of state s extends the prefix to end group es[c] in
    # [bs[s], e_hi[s]].  The candidates are processed in runs of whole
    # states of about _BLOCK candidates each, so every temporary below
    # stays in cache; a state longer than the block is a run of its own.
    lens = e_hi - bs + 1
    offsets = np.concatenate(([0], np.cumsum(lens)))
    n_states = len(bs)
    ramp = np.arange(min(offsets[-1], max(_BLOCK, lens.max(initial=0))))
    # Per-state operands (r as float: the same IEEE add as the int, one
    # cast fewer per candidate), and each state's first end group minus
    # its first candidate index, so candidate c ends at shift[s] + c.
    rep_b, ins_b, rs_f = cum_rep[bs], cum_ins[bs], rs.astype(float)
    shift = bs - offsets[:-1]
    # Valid candidates per state; run bookkeeping in plain Python: a run
    # costs a few dozen numpy calls, so its scalar steps should not add
    # more.
    n_valid = np.empty(n_states, dtype=np.int64)
    bounds = offsets.tolist()

    s0 = 0
    while s0 < n_states:
        check_deadline(deadline, where=f"dp pair {pair} run")
        lo = bounds[s0]
        s1 = max(bisect.bisect_right(bounds, lo + _BLOCK) - 1, s0 + 1)
        n = bounds[s1] - lo
        rl = lens[s0:s1]
        es = np.repeat(shift[s0:s1] + lo, rl)
        es += ramp[:n]

        # Cell cost of the slice [b, e): same IEEE ops as
        # RepeaterDiscretization.slice_units_spans — subtract the
        # *state's* cumulative, divide, epsilon-ceil — but done in place
        # on the run's buffers, which keeps its temporaries in cache.
        with np.errstate(invalid="ignore"):
            areas = cum_rep[es]
            areas -= np.repeat(rep_b[s0:s1], rl)
            if math.isinf(unit_area):
                nr = np.where(areas > 0.0, np.inf, 0.0)
            else:
                nr = areas / unit_area
                nr -= CEIL_EPS
                np.ceil(nr, out=nr)
                np.copyto(nr, 0.0, where=areas <= 0.0)
            # nan (poisoned slice) and inf both fail the budget test
            # below, exactly like the scalar inf mapping.
            nr += np.repeat(rs_f[s0:s1], rl)
            valid = nr <= num_units
            counts = np.add.reduceat(valid, offsets[s0:s1] - lo, dtype=np.int64)
            n_valid[s0:s1] = counts
            stats.transitions += int(counts.sum())

            nz = cum_ins[es]
            nz -= np.repeat(ins_b[s0:s1], rl)
            nz += np.repeat(zs[s0:s1], rl)

            # Scatter targets; infeasible candidates go to the overflow
            # cell `size` (cast garbage from inf/nan is overwritten
            # before use).
            lin = nr.astype(np.int64)
            es *= width
            lin += es
        invalid = np.logical_not(valid, out=valid)
        np.copyto(lin, size, where=invalid)
        # Their cost may be nan (inf - inf in cum_ins); the overflow
        # cell is never read, so give it a quiet inf instead.
        np.copyto(nz, math.inf, where=invalid)

        # Scatter-min the run into F[pair].  The value is
        # order-independent; _recover_parents re-derives the scalar
        # loop's strict-improvement winner (the first candidate in
        # processing order attaining the min) for the cells the witness
        # walk visits.
        np.minimum.at(flat, lin, nz)
        s0 = s1

    return _PairTransition(bs, rs, zs, capacity, e_hi, bs + n_valid - 1)


def _candidates(
    tables: AssignmentTables, disc, step: _PairTransition, pair: int, lo: int, hi: int
):
    """The valid candidates of ``step`` (see :func:`_pair_transition`)
    that end in ``[lo, hi]``, in processing order (states row-major in
    ``(b, r)``, ends ascending), as ``(sid, es, nr, nz, leftover)``:
    source state, end group, cells, repeaters above and the top pair's
    leftover capacity.

    Every quantity is the same IEEE sequence as the transition's, so it
    is bit-identical to the candidate the transition scattered.
    """
    bs, v_hi = step.bs, step.v_hi
    first = np.maximum(bs, lo)
    lens = np.minimum(v_hi, hi) - first + 1
    sid = np.flatnonzero(lens > 0)
    lens = lens[sid]
    # Candidate c of the k-th listed state ends at first + c - start[k].
    start = np.cumsum(lens) - lens
    es = np.arange(int(lens.sum())) + np.repeat(first[sid] - start, lens)
    sid = np.repeat(sid, lens)
    b = bs[sid]

    cum_area = tables.cum_wire_area[pair]
    cum_ins = tables.cum_inserted[pair]
    nr = disc.slice_units_spans(pair, b, es)
    nr += step.rs[sid]
    nz = (cum_ins[es] - cum_ins[b]) + step.zs[sid]
    leftover = step.capacity[sid] - (cum_area[es] - cum_area[b])
    return sid, es, nr.astype(np.int64), nz, leftover


def _levels(step: _PairTransition, num_groups: int) -> np.ndarray:
    """End groups with at least one valid candidate, ascending: those
    that some state's ``[bs, v_hi]`` covers."""
    cover = np.bincount(step.bs, minlength=num_groups + 2)
    cover -= np.bincount(step.v_hi + 1, minlength=num_groups + 2)
    return np.flatnonzero(np.cumsum(cover[: num_groups + 1]))


def _close_pair(flat: np.ndarray, width: int):
    """Read the pair's source states for the next pair out of ``flat``
    (``F[pair]`` of row width ``width`` plus the overflow cell) and reset
    it to all ``inf``.

    The next pair reads the strict-improvement states of ``F[pair]``
    cummin'd over budgets: the finite cells whose value is strictly
    below every earlier finite cell of their row.  Only those cells are
    touched, in row-major order, with their values copied unchanged, so
    the states, their order and their ``z`` match the dense cummin's.
    Returns ``(sources, cells)``: the records ``(bs, rs, zs)`` and every
    finite cell ``(rows, cols, vals)``, which the witness keeps.
    """
    size = len(flat) - 1
    idx = np.flatnonzero(flat[:size] < math.inf)
    vals = flat[idx]
    flat[idx] = math.inf
    flat[size] = math.inf
    rows, cols = np.divmod(idx, width)

    # The first finite cell of a row is a record; a later one is when
    # it beats the running minimum of the row's earlier cells.  Rows
    # with several cells (a few per pair) get a cummin padded to the
    # longest of them.
    keep = np.ones(len(idx), dtype=bool)
    keep[1:] = rows[1:] != rows[:-1]
    starts = np.flatnonzero(keep)
    counts = np.diff(np.append(starts, len(idx)))
    several = counts > 1
    if several.any():
        starts, counts = starts[several], counts[several]
        ramp = np.arange(counts.max())
        inside = ramp < counts[:, None]
        pos = (starts[:, None] + ramp)[inside]
        pad = np.full(inside.shape, math.inf)
        pad[inside] = vals[pos]
        runmin = np.minimum.accumulate(pad, axis=1)
        beats = np.ones(inside.shape, dtype=bool)
        beats[:, 1:] = pad[:, 1:] < runmin[:, :-1]
        keep[pos] = beats[inside]
    return (rows[keep], cols[keep], vals[keep]), (rows, cols, vals)


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
    width = disc.num_units + 1
    flat, sources = _start(tables, disc)

    best_rank = 0
    best_trace: Optional[Tuple[int, int, int, int]] = None  # (pair, b, e, r_pred)
    # Per-pair (bs, rs, zs, e_hi, cells) snapshots for the lazy
    # backward parent recovery; only kept when a witness is requested.
    snapshots: List[Optional[Tuple]] = []
    transition_s = 0.0
    rank_scan_s = 0.0
    close_s = 0.0

    for pair in range(tables.num_pairs):
        check_deadline(deadline, where=f"dp pair {pair} (numpy kernel)")
        t0 = time.perf_counter()
        step = _pair_transition(tables, disc, stats, flat, sources, pair, deadline)
        transition_s += time.perf_counter() - t0

        # --- Rank candidates, level-major: highest end group first.
        t1 = time.perf_counter()
        hit = _scan_rank_levels(tables, disc, stats, deadline, step, pair, best_rank)
        if hit is not None:
            best_rank, best_trace = hit
        rank_scan_s += time.perf_counter() - t1

        t2 = time.perf_counter()
        sources, cells = _close_pair(flat, width)
        close_s += time.perf_counter() - t2
        if collect_witness:
            snap = (step.bs, step.rs, step.zs, step.e_hi, cells)
            snapshots.append(snap if len(step.bs) else None)

    if _metrics_enabled():
        _obs_observe("solver.dp.kernel.transition_s", transition_s)
        _obs_observe("solver.dp.kernel.rank_scan_s", rank_scan_s)
        _obs_observe("solver.dp.kernel.close_s", close_s)

    parent_b: List = []
    parent_r: List = []
    if collect_witness and best_trace is not None:
        parent_b, parent_r = _recover_parents(tables, disc, snapshots, best_trace)
    return best_rank, best_trace, parent_b, parent_r


def solve_pairs_curve_numpy(tables: AssignmentTables, disc, stats) -> np.ndarray:
    """Run the DP pair loop, reducing rank candidates per budget cell.

    Same transitions as :func:`solve_pairs_numpy`.  Returns ``ranks``
    (length ``num_units + 1``, non-decreasing): ``ranks[c]`` is the best
    rank using at most ``c`` cells.
    """
    cum_wires = tables.cum_wires
    width = disc.num_units + 1
    ranks = np.zeros(width, dtype=np.int64)
    flat, sources = _start(tables, disc)

    for pair in range(tables.num_pairs):
        step = _pair_transition(tables, disc, stats, flat, sources, pair, None)
        # Only candidates that would raise the curve at their own
        # budget cell matter.  ranks[0] is the curve's minimum, so the
        # index threshold on it is a cheap first cut.
        thr = int(np.searchsorted(cum_wires, ranks[0], side="right"))
        _, es, nr, nz, left = _candidates(tables, disc, step, pair, thr, tables.num_groups)
        raises = cum_wires[es] > ranks[nr]
        _scan_budget_levels(
            tables, stats, pair, ranks, es[raises], nz[raises], left[raises], nr[raises]
        )
        sources, _ = _close_pair(flat, width)
    return ranks


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
    kernel retains per-pair snapshots (its source states and the finite
    cells of ``F[pair]`` before the cummin) and this function answers
    the few queries after the fact, by the same two rules the scalar
    loop applies eagerly:

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
    parent_b: List[dict] = [dict() for _ in range(pair_t)]
    parent_r: List[dict] = [dict() for _ in range(pair_t)]

    cur_b, cur_r = b_t, r_t
    for p in range(pair_t - 1, -1, -1):
        pb_val = pr_val = -1
        snap = snapshots[p]
        if snap is not None:
            bs, rs, zs, e_hi, (rows, cols, vals) = snap
            # Rebuild the walked row of F[p] before the cummin, up to r.
            lo, hi = np.searchsorted(rows, (cur_b, cur_b + 1))
            row = np.full(cur_r + 1, math.inf)
            upto = cols[lo:hi] <= cur_r
            row[cols[lo:hi][upto]] = vals[lo:hi][upto]
            runmin = np.minimum.accumulate(row)
            att = np.flatnonzero(row[1:] <= runmin[:-1])
            c = int(att[-1]) + 1 if len(att) else 0
            value = row[c]

            cum_ins = tables.cum_inserted[p]
            cand = np.flatnonzero((bs <= cur_b) & (e_hi >= cur_b))
            if len(cand) and math.isfinite(value):
                sb = bs[cand]
                nr = rs[cand] + disc.slice_units_spans(p, sb, cur_b)
                with np.errstate(invalid="ignore"):
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
    disc,
    stats,
    deadline: Optional[float],
    step: _PairTransition,
    pair: int,
    best_rank: int,
):
    """Find the pair's best rank candidate that actually packs.

    Scans the end-group levels that hold candidates in descending order,
    building each level's candidates only when it is reached, down to
    the first level that cannot beat ``best_rank``.  Within a level,
    candidates keep the transition kernel's processing order (states
    row-major in ``(b, r)``), so the first packing candidate is the
    same one the scalar loop's running-best scan would have committed.
    Returns ``(rank, (pair, b, e, r))`` for the first success, or
    ``None`` when no candidate on this pair beats ``best_rank``.
    """
    cum_wires = tables.cum_wires
    for e in reversed(_levels(step, tables.num_groups).tolist()):
        wires_e = int(cum_wires[e])
        if wires_e <= best_rank:
            break  # descending levels: every remaining one is smaller
        check_deadline(deadline, where=f"dp pair {pair}, rank level {e}")
        sid, _, _, nz, left = _candidates(tables, disc, step, pair, e, e)
        i = _first_packing(tables, stats, pair, e, nz, left)
        if i is not None:
            j = sid[i]
            return wires_e, (pair, int(step.bs[j]), e, int(step.rs[j]))
    return None


def _scan_budget_levels(tables, stats, pair, ranks, es_v, nz_v, leftover_v, nr_v):
    """Raise the curve ``ranks`` (best rank within ``c`` cells, non-decreasing)
    with the pair's candidates (end group ``es_v``, cells ``nr_v``) that pack.

    Levels run from the highest end group down, candidates within one in
    ascending ``nr``; the first that packs raises ``ranks[nr:]`` and ends
    its level, since it dominates the level's larger cells.  The order
    cannot change the curve: ``ranks[c]`` is the max of ``cum_wires[e]``
    over packable candidates with ``nr <= c``, and a candidate is skipped
    only when dominated or provably unable to pack.
    """
    cum_wires = tables.cum_wires
    order = np.lexsort((nr_v, es_v))
    sorted_es = es_v[order]
    levels, starts = np.unique(sorted_es, return_index=True)
    bounds = np.append(starts, len(sorted_es))

    for li in range(len(levels) - 1, -1, -1):
        e = int(levels[li])
        wires_e = int(cum_wires[e])
        if wires_e <= ranks[0]:
            break  # descending levels: dominated at every cell
        idxs = order[bounds[li]:bounds[li + 1]]
        # ranks is non-decreasing and nr ascends within the level, so
        # the candidates that still raise the curve are a prefix.
        live = int(np.searchsorted(ranks[nr_v[idxs]], wires_e, side="left"))
        if not live:
            continue
        idxs = idxs[:live]
        i = _first_packing(tables, stats, pair, e, nz_v[idxs], leftover_v[idxs])
        if i is not None:
            nr = int(nr_v[idxs[i]])
            np.maximum(ranks[nr:], wires_e, out=ranks[nr:])


def _first_packing(tables, stats, pair: int, e: int, cz, cleft) -> Optional[int]:
    """Index of the first candidate of level ``e`` whose suffix packs
    (``None`` if none does), trying them in order; ``cz`` and ``cleft``
    are their repeaters above and top-pair leftovers."""
    wires_e = int(tables.cum_wires[e])
    # Vectorized threshold prune: the required leftover at the level's
    # smallest z lower-bounds every candidate's threshold.
    req0 = pack_required_leftover(tables, e, pair, wires_e, float(cz.min()))
    alive = cleft >= req0 * _PRUNE_MARGIN
    stats.pack_pruned += int(len(cz) - alive.sum())

    while True:
        cand = np.flatnonzero(alive)
        if cand.size == 0:
            return None
        i = int(cand[0])
        stats.pack_checks += 1
        z, left = float(cz[i]), float(cleft[i])
        if pack_suffix(tables, e, pair, wires_e, z, top_pair_leftover=left):
            stats.pack_successes += 1
            return i
        alive[i] = False
        # Tighten: the exact threshold at the failed z prunes every
        # candidate it dominates (z' >= z needs at least as much
        # leftover), with the same conservative margin.
        req = pack_required_leftover(tables, e, pair, wires_e, z)
        pruned = alive & (cz >= cz[i]) & (cleft < req * _PRUNE_MARGIN)
        stats.pack_pruned += int(pruned.sum())
        alive &= ~pruned
