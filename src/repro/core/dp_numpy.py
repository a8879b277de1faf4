"""Vectorized (NumPy) transition kernels for the rank DP.

Same recurrence and state space as the scalar test oracle
(``tests/dp_oracle.py``), but one *whole layer-pair* of work per kernel
call instead of one ``(b, r)`` state at a time:

* the transition reads its source states as arrays ``(bs, rs, zs)``:
  the strict-improvement records of ``F[pair-1]``, exactly the states a
  cummin over budgets would expose, row-major in ``(b, r)``,
* of each state it first finds ``v_hi``, its last end group within
  budget (the valid ends are a prefix of its range), from a
  ``searchsorted`` guess and an uncapped fix-up with the cell test
  itself, without expanding the range,
* it then clips from each state's range the ends where an earlier state
  dominates it (below) and expands only the rest, a run of whole states
  at a time, about ``_BLOCK`` candidates per run, with in-place ufuncs
  over cache-sized temporaries; the pair's candidates are never all
  materialized, and no dense ``(G+1) x (R+1)`` table is allocated,
* :func:`_close_pair` reads the next pair's records out of the kept
  candidates with one ``np.sort`` of int64 keys ``cell * span + (z -
  z_min)``, exact because every ``z`` is an integer below ``2^53``
  ("Values are exact" below): the first key of each cell is its
  minimum, one running minimum over ``z - row * span`` picks every
  row's records at once, and they come out row-major with their ``z``
  restored; blocks of whole rows keep a key within int64, and a pair
  holding more than ``_COMPACT`` candidates closes them on the way,
* witness parents are *not* tracked during the forward pass — the
  kernel retains each pair's source states, and :func:`_witness` walks
  back from the winning transition once, re-deriving the one parent per
  pair it visits and turning each step into a ``WitnessSegment``,
* the rank-candidate scan runs level-major — highest end group first
  across *all* states — and :func:`_candidates` rebuilds a level's
  candidates over each state's unclipped ``[b, v_hi]`` only when the
  scan reaches it (bit-identical to the transition's), with a
  :func:`~repro.assign.greedy_assign.pack_required_leftover` threshold
  test pruning provably-failing candidates before any
  :func:`~repro.assign.greedy_assign.pack_suffix` call, one query each,
* the budget curve asks the packer once per pair instead: every level's
  first packing candidate comes out of batched calls
  (:func:`_first_packings`), one row per level.

Dominance clip.  Write ``C``, ``I`` for the pair's ``cum_rep_area`` and
``cum_inserted``, ``u`` for the cell area and ``ε`` for ``CEIL_EPS``; a
state ``(b, r, z)``'s candidate at end ``e`` lands in cell ``r +
ceil((C[e] - C[b]) / u - ε)`` (0 cells for a non-positive area) with
value ``z + (I[e] - I[b])``.  State ``i`` dominates a later-starting
state ``j`` (``b_i < b_j``) when

1. ``v_hi[i] >= b_j``: it has valid candidates on ``j``'s rows;
2. ``z_i - I[b_i] <= z_j - I[b_j]``: ``i`` extended to ``b_j`` carries
   no more repeaters than ``j``;
3. ``r_i - C[b_i] / u <= r_j - C[b_j] / u - δ``, with ``δ = 2^-46 ·
   (max C / u + R + 1)``: ``i``'s unrounded extra cost ``(C[b_j] -
   C[b_i]) / u`` is at most ``r_j - r_i`` less the margin; or else
   ``C[b_j] == C[b_i]`` and ``r_i <= r_j``.

Then at every end ``e`` in ``[b_j, v_hi[i]]`` the candidate of ``i``
is no worse than ``j``'s in both cell and value, so the cummin'd row
``e`` of ``F[pair]`` already holds, at ``j``'s cell or left of it, a
value no larger than ``j``'s: dropping ``j``'s candidate there moves no
record.  ``i``'s own candidate may be dropped only for an earlier
state's that is no worse again, so by induction on ``b`` the records
are the unclipped table's, bit for bit.

* Values are exact.  ``I`` is integer-valued (a running sum of wire
  count × inserted repeaters), and so is every ``z`` (a sum of such
  differences, one per pair).  :func:`~repro.assign.tables.build_tables`
  checks that the pairs' totals ``I[G]`` sum to below ``2^53``, which
  bounds every ``z``, so the IEEE subtractions and additions are exact
  and test 2 is the value comparison at every ``e``.
* Cells need the unrounded cost and a margin.  In exact arithmetic
  ``(C[e] - C[b_i]) / u = (C[e] - C[b_j]) / u + (C[b_j] - C[b_i]) / u``,
  so if the last term is at most ``r_j - r_i`` then ``ceil``, being
  monotone and commuting with adding an integer, charges ``i`` no more
  than ``j``.  Each quantity the kernel actually computes (both slice
  areas, their quotients, the ``ε`` shift and test 3's two sides) is
  off by a few ulps of ``max C / u + R``; ``δ`` is thousands of times
  that, so test 3 implies the exact inequality for the rounded values
  too.  The clamp of a non-positive area to 0 cells only lowers ``i``'s
  cost and only raises ``j``'s.  The equal-``C`` branch is exact: both
  slices subtract the same float.
* The ceil'd cost would be unsound.  ``ceil((C[b_j] - C[b_i]) / u - ε)
  <= r_j - r_i`` admits an extra cost up to ``r_j - r_i + ε``, and that
  ``ε`` can carry ``i``'s slice across a cell boundary that ``j``'s
  stays below: ``ceil`` is subadditive, but ``ceil(a + b - ε) <= ceil(a
  - ε) + ceil(b - ε)`` fails when ``a`` and ``b`` each exceed an
  integer by less than ``ε`` but together by more.  With an extra cost
  of ``1 + 5e-10`` cells and a slice of ``7.5e-10`` cells past ``b_j``,
  ``j`` pays 0 cells and ``i`` pays 2.  Float rounding can break the
  bare unrounded test too, hence the margin.

Each state tests O(log n) earlier rows' states, the cheapest by ``r -
C[b] / u`` (the best for test 3) within the last 1, 2, 4, ... states
before its row, and keeps ``[max over its dominators of v_hi + 1,
v_hi]``.  ``transitions``, :func:`_levels`, :func:`_candidates`, the
rank scan and :func:`_witness` all read the unclipped ranges,
so counters, ranks and witnesses do not depend on the clip.

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
produce smaller ranks.  The curve needs, of each level, only the
packing candidate of fewest cells, so it finds every level's first
packing candidate in ``nr`` order at once (see
:func:`_scan_budget_levels`).
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
from ..errors import RankComputationError
from ..obs.metrics import inc as _obs_inc
from ..obs.metrics import metrics_enabled as _metrics_enabled
from ..obs.metrics import observe as _obs_observe
from .discretize import CEIL_EPS
from .dp import WitnessSegment, check_deadline

#: Conservative relative margin for threshold pruning — identical to the
#: scalar oracle's memo margin, so near-tie leftovers fall through to a
#: real pack call in both.
_PRUNE_MARGIN = 1.0 - 1e-9


#: Candidates per run of source states in :func:`_pair_transition`: each
#: float64 temporary of a run is 128 KB, so the dozen a run keeps live
#: stay in a 2 MB L2 cache.
_BLOCK = 1 << 14

#: Kept candidates a pair may hold before :func:`_pair_transition`
#: reduces them to their records (16 bytes each, 1 MB).  Records of
#: records are the records of the whole, so the reduction is exact; it
#: bounds the pair's memory by this plus its records however much work
#: the pair does, and keeps each sort's keys within a 2 MB L2 cache.
_COMPACT = 1 << 16

#: Relative slack of the cost margin in :func:`_first_kept`: far above
#: the few ulps that the IEEE cell test and the margin test can each
#: round by, so the margin covers both (see the module docstring).
_MARGIN_ULPS = 2.0**-46

#: One pair's transition, as :func:`_pair_transition` returns it.
_PairTransition = namedtuple(
    "_PairTransition", "bs rs zs capacity e_hi v_hi scattered close_s"
)

#: Largest key :func:`_close_pair` packs into one int64.
_KEY_MAX = int(np.iinfo(np.int64).max)


def _start():
    """The first pair's source states: before it only the empty prefix
    is reachable, for free, so the one source is ``(b, r, z) = (0, 0,
    0.0)``."""
    zero = np.zeros(1, dtype=np.int64)
    return zero, zero.copy(), np.zeros(1)


def _pair_transition(
    tables: AssignmentTables,
    disc,
    stats,
    sources: Tuple[np.ndarray, np.ndarray, np.ndarray],
    pair: int,
    deadline: Optional[float],
):
    """Expand the source states ``(bs, rs, zs)`` of ``F[pair-1]`` into
    ``F[pair]``.

    Returns ``(step, cells)``.  ``step.bs, rs, zs, capacity, e_hi`` are
    the source states, all of which extend; state ``s`` has one candidate
    per end group in ``[bs[s], e_hi[s]]``, and those within budget are
    the ends up to ``v_hi[s]`` (at least ``bs[s]``: the empty slice is
    free).
    :func:`_candidates` rebuilds any of them on demand.  ``cells`` are
    the candidates the pair scattered, ``(lin, vals)`` with ``lin = e *
    (R+1) + cells``: the valid candidates the dominance clip keeps, in
    no particular order; :func:`_close_pair` reads ``F[pair]``'s records
    out of them.  ``step.scattered`` counts them before any reduction,
    and ``step.close_s`` is the time the pair spent reducing them on the
    way (a :func:`_close_pair` of its own).
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
    # The wall: an end past next_infeasible[b] puts a group the pair
    # cannot time into the slice.  The empty slice is under both bounds,
    # so every state extends.
    e_hi = np.minimum(e_hi, delay_limit[bs])

    v_hi = _last_valid(cum_rep, disc, bs, rs, e_hi)
    stats.transitions += int((v_hi - bs + 1).sum())
    first = _first_kept(cum_rep, cum_ins, disc, bs, rs, zs, v_hi)

    # Candidate c of the k-th kept state ends at group shift[k] + c, in
    # [first, v_hi]: all within budget, so none needs masking.  They are
    # processed in runs of whole states of about _BLOCK candidates each,
    # so every temporary below stays in cache; a state longer than the
    # block is a run of its own.
    kept = np.flatnonzero(v_hi >= first)
    lens = v_hi[kept] - first[kept] + 1
    offsets = np.concatenate(([0], np.cumsum(lens)))
    ramp = np.arange(min(offsets[-1], max(_BLOCK, lens.max(initial=0))))
    # Per-state operands (r as float: the same IEEE add as the int, one
    # cast fewer per candidate).
    rep_b, ins_b = cum_rep[bs[kept]], cum_ins[bs[kept]]
    rs_f, zs_k = rs[kept].astype(float), zs[kept]
    shift = first[kept] - offsets[:-1]
    # Run bookkeeping in plain Python: a run costs a dozen numpy calls,
    # so its scalar steps should not add more.
    bounds = offsets.tolist()
    width = num_units + 1
    lins: List[np.ndarray] = [np.zeros(0, dtype=np.int64)]
    vals: List[np.ndarray] = [np.zeros(0)]
    held, limit = 0, _COMPACT
    close_s = 0.0

    s0 = 0
    while s0 < len(kept):
        check_deadline(deadline, where=f"dp pair {pair} run")
        lo = bounds[s0]
        s1 = max(bisect.bisect_right(bounds, lo + _BLOCK) - 1, s0 + 1)
        n = bounds[s1] - lo
        rl = lens[s0:s1]
        es = np.repeat(shift[s0:s1] + lo, rl)
        es += ramp[:n]

        # Cell cost of the slice [b, e): same IEEE ops as
        # RepeaterDiscretization.cells on a slice — subtract the
        # *state's* cumulative, divide, epsilon-ceil — but done in place
        # on the run's buffers, which keeps its temporaries in cache.
        # With no budget (unit_area inf) every kept slice is free.
        areas = cum_rep[es]
        areas -= np.repeat(rep_b[s0:s1], rl)
        nr = areas / unit_area
        nr -= CEIL_EPS
        np.ceil(nr, out=nr)
        np.copyto(nr, 0.0, where=areas <= 0.0)
        nr += np.repeat(rs_f[s0:s1], rl)

        nz = cum_ins[es]
        nz -= np.repeat(ins_b[s0:s1], rl)
        nz += np.repeat(zs_k[s0:s1], rl)

        lin = nr.astype(np.int64)
        es *= width
        lin += es
        lins.append(lin)
        vals.append(nz)
        held += n
        if held > limit:
            t0 = time.perf_counter()
            rows, cols, rec = _close_pair(np.concatenate(lins), np.concatenate(vals), width)
            lins, vals = [rows * width + cols], [rec]
            close_s += time.perf_counter() - t0
            # Reduce again only once the pair has doubled: linear in all.
            held = len(rec)
            limit = max(_COMPACT, 2 * held)
        s0 = s1

    step = _PairTransition(bs, rs, zs, capacity, e_hi, v_hi, bounds[-1], close_s)
    return step, (np.concatenate(lins), np.concatenate(vals))


def _last_valid(cum_rep, disc, bs, rs, e_hi) -> np.ndarray:
    """Each state's last end group within budget in ``[bs, e_hi]``, by
    the transition's own cell test on the pair's ``cum_rep``.

    ``cum_rep`` is non-decreasing, and IEEE subtract, divide and ceil
    are monotone, so the cell count never falls as the end group grows
    and the valid ends form a prefix of the range; it holds ``bs``, the
    free empty slice, and so does every end of ``bs``'s run of equal
    ``cum_rep``.  The guess inverts the budget to an area; rounding can
    put it a few ends off, and the fix-up steps it, one run of equal
    ``cum_rep`` (which share one verdict) at a time, until the test
    holds at it and fails past it.
    """
    num_units, unit_area = disc.num_units, disc.unit_area

    def valid(some, ends):
        areas = cum_rep[ends] - cum_rep[bs[some]]
        return rs[some] + disc.cells(areas) <= num_units

    reach = cum_rep[bs]
    if not math.isinf(unit_area):
        reach = reach + (num_units - rs + CEIL_EPS) * unit_area
    v = np.searchsorted(cum_rep, reach, side="right") - 1
    v = np.clip(v, bs, e_hi)
    while True:
        up = v < e_hi
        up[up] = valid(up, v[up] + 1)
        down = v > bs
        down[down] = ~valid(down, v[down])
        if not (up.any() or down.any()):
            return v
        nxt = v[up] + 1
        v[up] = np.minimum(np.searchsorted(cum_rep, cum_rep[nxt], side="right") - 1, e_hi[up])
        # Before the run of v's cum_rep, which is past bs's (bs is valid).
        v[down] = np.searchsorted(cum_rep, cum_rep[v[down]], side="left") - 1


def _first_kept(cum_rep, cum_ins, disc, bs, rs, zs, v_hi) -> np.ndarray:
    """First end group each state scatters: one past the last end of
    the earlier states found to dominate it, else its own ``b``.
    ``cum_rep`` and ``cum_ins`` are the pair's cumulative repeater area
    and inserted count.

    The dominance tests and their proof are in the module docstring.
    Each state tests, for every ``k``, the state with the least ``r -
    cum_rep[b] / unit_area`` (the best for the cost test) among the last
    ``2^k`` states before its row: the further back the window reaches,
    the cheaper that state but the shorter its reach.
    """
    n = len(bs)
    first = bs.copy()
    idx = np.arange(n)
    # The last state of the rows before each state's own (-1: none).
    head = np.ones(n, dtype=bool)
    head[1:] = bs[1:] != bs[:-1]
    prev = np.maximum.accumulate(np.where(head, idx, 0)) - 1
    j = np.flatnonzero(prev >= 0)
    if not len(j):
        return first

    unit_area = disc.unit_area
    cb = cum_rep[bs]
    # Tests 2 and 3 compare one key per state: the repeaters less the
    # prefix's cumulative count (exact: integers), and the cells less
    # the prefix's unrounded cumulative cost, whose margin covers the
    # rounding of both it and the cell test over the pair's largest
    # cum_rep, its total.
    margin = _MARGIN_ULPS * (cum_rep[-1] / unit_area + disc.num_units + 1)
    spare = zs - cum_ins[bs]
    cost = rs - cb / unit_area

    # The cheapest state of the last 1, 2, 4, ... states before each
    # row: each doubling keeps the cheaper of a window's and the one
    # just before it (state 0 stands in before the first).
    pj = prev[j]
    cheapest, span, rows = idx, 1, [pj]
    while span < n:
        before = np.concatenate((np.zeros(span, dtype=np.int64), cheapest[:-span]))
        cheapest = np.where(cost[before] < cost[cheapest], before, cheapest)
        span *= 2
        rows.append(cheapest[pj])

    i = np.array(rows)
    dominates = (
        (v_hi[i] >= bs[j])
        & (spare[i] <= spare[j])
        & ((cost[i] <= cost[j] - margin) | ((cb[i] == cb[j]) & (rs[i] <= rs[j])))
    )
    last = np.where(dominates, v_hi[i], -1).max(axis=0)
    first[j] = np.where(last >= 0, last + 1, bs[j])
    return first


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
    cum_rep = tables.cum_rep_area[pair]
    nr = disc.cells(cum_rep[es] - cum_rep[b])
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


def _close_pair(lin: np.ndarray, vals: np.ndarray, width: int):
    """The records of ``F[pair]`` given its scattered candidates: cell
    indices ``lin = row * width + col`` and values ``vals``, in any
    order, several per cell allowed.

    The next pair reads the strict-improvement states of ``F[pair]``
    cummin'd over budgets: per row, the cells whose minimum is strictly
    below every earlier cell's.  The values are integers below ``2^53``
    (see the module docstring), so a candidate packs exactly into the
    int64 key ``cell * span + (z - z_min)``, ``span`` the values' range
    plus one, and one sort orders the candidates by row, column and
    value.  Returns the records ``(bs, rs, zs)`` row-major with their
    values restored bit for bit, so the states, their order and their
    ``z`` match a dense cummin's.

    When ``(max cell + 1) * span`` does not fit in an int64, the close
    runs on blocks of whole rows, each block's cells counted from its
    first row: records never cross rows, so the blocks' records, in
    block order, are the whole's.
    """
    if not len(lin):
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64), np.zeros(0)
    z_min = vals.min()
    span = int(vals.max() - z_min) + 1
    if (int(lin.max()) + 1) * span <= _KEY_MAX:
        return _close_rows(lin, vals, width, 0, z_min, span)
    block = _KEY_MAX // (span * width)  # whole rows a key can hold
    if not block:
        raise RankComputationError(
            f"repeater counts span {span:,}: one row of {width} budget cells "
            "does not pack into an int64 sort key"
        )
    parts = []
    for r0 in range(int(lin.min()) // width, int(lin.max()) // width + 1, block):
        sel = (lin >= r0 * width) & (lin < (r0 + block) * width)
        if sel.any():
            parts.append(_close_rows(lin[sel], vals[sel], width, r0, z_min, span))
    return tuple(np.concatenate(a) for a in zip(*parts))


def _close_rows(lin, vals, width: int, r0: int, z_min, span: int):
    """:func:`_close_pair` of candidates whose keys, with cells counted
    from row ``r0``, fit in an int64."""
    key = (lin - r0 * width) * span if r0 else lin * span
    if z_min:
        key -= int(z_min)
    key += vals.astype(np.int64)
    key.sort()
    # The first key of each cell is the cell's minimum; the rest are
    # never records.
    cells = key // span
    head = np.empty(len(key), dtype=bool)
    head[0] = True
    np.not_equal(cells[1:], cells[:-1], out=head[1:])
    key = key[head]
    cells = key // span
    z = key - cells * span
    rows = cells // width
    # Cell minima in row-major order: one is a record exactly when it is
    # below every earlier one in its row.  z - row * span falls from row
    # to row, so one running minimum tests all rows at once.
    drop = z - rows * span
    record = np.ones(len(key), dtype=bool)
    record[1:] = drop[1:] < np.minimum.accumulate(drop)[:-1]
    bs = rows[record]
    rs = cells[record] - bs * width
    if r0:
        bs += r0
    return bs, rs, z[record] + z_min


def solve_pairs_numpy(
    tables: AssignmentTables,
    disc,
    stats,
    collect_witness: bool,
    deadline: Optional[float],
):
    """Run the DP pair loop with whole-pair vectorized kernels.

    Returns ``(best_rank, witness)``: the winning prefix's
    ``WitnessSegment`` per pair (see :func:`_witness`), or ``None``
    unless ``collect_witness`` is set and some prefix meets delay.
    """
    width = disc.num_units + 1
    sources = _start()

    best_rank = 0
    best_trace: Optional[Tuple[int, int, int, int]] = None  # (pair, b, e, r_pred)
    # Per-pair (bs, rs, zs, e_hi) snapshots for the witness walk; only
    # kept when a witness is requested.
    snapshots: List[Tuple[np.ndarray, ...]] = []
    transition_s = 0.0
    rank_scan_s = 0.0
    close_s = 0.0
    scattered = 0

    for pair in range(tables.num_pairs):
        check_deadline(deadline, where=f"dp pair {pair} (numpy kernel)")
        t0 = time.perf_counter()
        step, cells = _pair_transition(tables, disc, stats, sources, pair, deadline)
        transition_s += time.perf_counter() - t0 - step.close_s
        close_s += step.close_s
        scattered += step.scattered

        # --- Rank candidates, level-major: highest end group first.
        t1 = time.perf_counter()
        hit = _scan_rank_levels(tables, disc, stats, deadline, step, pair, best_rank)
        if hit is not None:
            best_rank, best_trace = hit
        rank_scan_s += time.perf_counter() - t1

        t2 = time.perf_counter()
        sources = _close_pair(*cells, width)
        close_s += time.perf_counter() - t2
        if collect_witness:
            snapshots.append((step.bs, step.rs, step.zs, step.e_hi))

    _publish_kernel_timers(transition_s, rank_scan_s, close_s)
    if _metrics_enabled():
        _obs_inc("solver.dp.kernel.scattered", scattered)

    witness = None
    if collect_witness and best_trace is not None:
        witness = _witness(tables, disc, snapshots, best_trace)
    return best_rank, witness


def _publish_kernel_timers(transition_s: float, rank_scan_s: float, close_s: float) -> None:
    """Publish one solve's time in the kernel's three layers."""
    if _metrics_enabled():
        _obs_observe("solver.dp.kernel.transition_s", transition_s)
        _obs_observe("solver.dp.kernel.rank_scan_s", rank_scan_s)
        _obs_observe("solver.dp.kernel.close_s", close_s)


def solve_pairs_curve_numpy(tables: AssignmentTables, disc, stats) -> np.ndarray:
    """Run the DP pair loop, reducing rank candidates per budget cell.

    Same transitions as :func:`solve_pairs_numpy`.  Returns ``ranks``
    (length ``num_units + 1``, non-decreasing): ``ranks[c]`` is the best
    rank using at most ``c`` cells.
    """
    cum_wires = tables.cum_wires
    width = disc.num_units + 1
    ranks = np.zeros(width, dtype=np.int64)
    sources = _start()
    transition_s = rank_scan_s = close_s = 0.0

    for pair in range(tables.num_pairs):
        t0 = time.perf_counter()
        step, cells = _pair_transition(tables, disc, stats, sources, pair, None)
        t1 = time.perf_counter()
        # Only candidates that would raise the curve at their own
        # budget cell matter.  ranks[0] is the curve's minimum, so the
        # index threshold on it is a cheap first cut.
        thr = int(np.searchsorted(cum_wires, ranks[0], side="right"))
        _, es, nr, nz, left = _candidates(tables, disc, step, pair, thr, tables.num_groups)
        raises = cum_wires[es] > ranks[nr]
        _scan_budget_levels(
            tables, stats, pair, ranks, es[raises], nz[raises], left[raises], nr[raises]
        )
        t2 = time.perf_counter()
        sources = _close_pair(*cells, width)
        transition_s += t1 - t0 - step.close_s
        rank_scan_s += t2 - t1
        close_s += time.perf_counter() - t2 + step.close_s

    _publish_kernel_timers(transition_s, rank_scan_s, close_s)
    return ranks


def _witness(
    tables: AssignmentTables,
    disc,
    snapshots: List[Tuple[np.ndarray, ...]],
    best_trace: Tuple[int, int, int, int],
) -> Tuple[WitnessSegment, ...]:
    """The winning prefix, one ``WitnessSegment`` per pair, in one walk
    back from the winning transition ``best_trace = (pair, b, e, r)``.

    Parents are not tracked during the forward pass: the kernel retains
    each pair's source states (``snapshots``), and the walk re-derives
    the one parent per pair it visits.  Every cell it visits is a
    source state of the next pair down, so a record of ``F[p]``: its
    cummin'd value sits in its own column, as the scalar loop's cummin
    keeps a column's own parent unless an earlier column is strictly
    lower.  Its parent is then, as in the scalar loop, the *first* transition candidate in
    processing order (states row-major in ``(b, r)``) that lands on that
    cell with that value, the record's ``z``.  Candidates are enumerated
    over each state's whole range, so the dominance clip of
    :func:`_first_kept` cannot move a parent.
    """
    pair, b, e, r = best_trace

    def segment(p, start, end):
        cum_rep, cum_ins = tables.cum_rep_area[p], tables.cum_inserted[p]
        return WitnessSegment(
            pair=p,
            start_group=start,
            end_group=end,
            repeater_cells=int(disc.cells(cum_rep[end] - cum_rep[start])),
            repeaters=int(cum_ins[end] - cum_ins[start]),
        )

    segments = [segment(pair, b, e)]
    bs, rs, zs, _ = snapshots[pair]
    value = zs[np.flatnonzero((bs == b) & (rs == r))[0]]
    for p in range(pair - 1, -1, -1):
        bs, rs, zs, e_hi = snapshots[p]
        cum_rep, cum_ins = tables.cum_rep_area[p], tables.cum_inserted[p]
        cand = np.flatnonzero((bs <= b) & (e_hi >= b))
        nr = rs[cand] + disc.cells(cum_rep[b] - cum_rep[bs[cand]])
        nz = zs[cand] + (cum_ins[b] - cum_ins[bs[cand]])
        hits = cand[(nr == r) & (nz == value)]
        if not len(hits):
            raise RankComputationError(
                f"witness walk found no parent for state "
                f"(pair={p}, groups={b}, cells={r})"
            )
        i = hits[0]
        segments.append(segment(p, int(bs[i]), b))
        b, r, value = int(bs[i]), int(rs[i]), zs[i]
    segments.reverse()
    return tuple(segments)


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

    ``ranks[c]`` becomes the max of ``cum_wires[e]`` over packable
    candidates with ``nr <= c``, so each level (end group) contributes
    only its packable candidate of fewest cells: its first packing
    candidate in ``nr`` order.  :func:`_first_packings` finds every
    level's in batched packer calls, and each raises ``ranks[nr:]``.
    The order of the raises cannot matter, and a level that a higher
    level already dominates at that cell raises nothing.  Candidates are
    skipped only when provably unable to pack (``docs/algorithms.md``
    §6 has the argument).
    """
    order = _level_order(es_v, nr_v, len(ranks))
    es, nr = es_v[order], nr_v[order]
    levels, starts = np.unique(es, return_index=True)
    first = _first_packings(tables, stats, pair, levels, starts, nz_v[order], leftover_v[order])
    hit = first[first >= 0]
    raised = np.zeros_like(ranks)
    np.maximum.at(raised, nr[hit], tables.cum_wires[es[hit]])
    np.maximum(ranks, np.maximum.accumulate(raised), out=ranks)


def _level_order(es_v, nr_v, width: int) -> np.ndarray:
    """The candidates' order by end group, then cells (``nr < width``):
    one stable sort of the keys ``es * width + nr``."""
    return np.argsort(es_v * width + nr_v, kind="stable")


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


def _first_packings(tables, stats, pair: int, levels, starts, cz, cleft) -> np.ndarray:
    """Each level's first candidate whose suffix packs, as an index into
    ``cz`` and ``cleft`` (``-1`` if none does).

    The candidates of level ``levels[l]`` are ``starts[l]`` up to the
    next level's start, in the order they are tried; ``cz`` and
    ``cleft`` are their repeaters above and top-pair leftovers.  This is
    :func:`_first_packing` for all levels at once, each packer call
    asking about every level still open, one row per level: the
    threshold at each level's smallest ``z``, then rounds that pack each
    open level's first surviving candidate, a failed one tightening its
    level's threshold for the next round.
    """
    first = np.full(len(levels), -1)
    if not len(levels):
        return first
    level = np.repeat(np.arange(len(levels)), np.diff(np.append(starts, len(cz))))
    wires = tables.cum_wires[levels]
    req = pack_required_leftover(tables, levels, pair, wires, np.minimum.reduceat(cz, starts))
    alive = cleft >= req[level] * _PRUNE_MARGIN
    stats.pack_pruned += int(len(cz) - alive.sum())
    while True:
        cand = np.flatnonzero(alive)
        if not len(cand):
            return first
        # The first surviving candidate of each level still open.
        head = np.ones(len(cand), dtype=bool)
        head[1:] = level[cand[1:]] != level[cand[:-1]]
        pick = cand[head]
        at = level[pick]
        stats.pack_checks += len(pick)
        packs = pack_suffix(
            tables, levels[at], pair, wires[at], cz[pick], top_pair_leftover=cleft[pick]
        )
        stats.pack_successes += int(packs.sum())
        first[at[packs]] = pick[packs]
        alive &= first[level] < 0  # a level ends at its first success
        failed, at = pick[~packs], at[~packs]
        if not len(failed):
            return first
        alive[failed] = False
        # Tighten as _first_packing does, per failed level.
        req = np.full(len(levels), -np.inf)
        floor = np.full(len(levels), np.inf)
        req[at] = pack_required_leftover(tables, levels[at], pair, wires[at], cz[failed])
        floor[at] = cz[failed]
        pruned = alive & (cz >= floor[level]) & (cleft < req[level] * _PRUNE_MARGIN)
        stats.pack_pruned += int(pruned.sum())
        alive &= ~pruned
