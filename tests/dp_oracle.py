"""The scalar rank-DP pair loop: the test oracle of the NumPy kernel.

:func:`solve_pairs_python` is the recurrence of :mod:`repro.core.dp`
written one ``(b, r)`` state at a time, with dense ``F[pair]`` tables,
eager parent pointers and a per-pair failed-pack memo.  No product
path runs it; ``tests/conftest.py::solve_rank_oracle`` runs
:func:`repro.core.dp.solve_rank_dp` with it in place of
:func:`repro.core.dp_numpy.solve_pairs_numpy`.

:func:`close_pair_lexsort` is the kernel's pair close as a three-key
sort, the oracle of the packed-key
:func:`repro.core.dp_numpy._close_pair`.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

import numpy as np

from repro.assign.greedy_assign import pack_required_leftover, pack_suffix
from repro.assign.tables import AssignmentTables
from repro.core.dp import SolverStats, WitnessSegment, check_deadline


def solve_pairs_python(
    tables: AssignmentTables,
    disc,
    stats: SolverStats,
    collect_witness: bool,
    deadline: Optional[float],
):
    """Scalar pair loop: the test oracle for ``solve_pairs_numpy``.

    It visits one ``(b, r)`` state at a time, has the same signature and
    returns the same things as
    :func:`repro.core.dp_numpy.solve_pairs_numpy`, so tests swap it in
    for the kernel (``solve_rank_oracle`` in ``tests/conftest.py``) and
    check ranks, witnesses and deterministic counters bit for bit on
    bunched, multi-wire-group problems.

    Returns ``(best_rank, witness)``; the witness is walked back from
    the winning transition through the dense parent tables
    (:func:`_walk_parents`), ``None`` unless ``collect_witness`` is set
    and some prefix meets delay.
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
        cum_rep = tables.cum_rep_area[pair]
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
                du = disc.cells(cum_rep[es] - cum_rep[b])
                valid = r + du <= num_units
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

    witness = None
    if keep_parents and best_trace is not None:
        witness = _walk_parents(tables, disc, parent_b, parent_r, best_trace)
    return best_rank, witness


def _walk_parents(
    tables: AssignmentTables,
    disc,
    parent_b: List[np.ndarray],
    parent_r: List[np.ndarray],
    best_trace: Tuple[int, int, int, int],
) -> Tuple[WitnessSegment, ...]:
    """The winning prefix's segments, walked back from ``best_trace =
    (pair, b, e, r_pred)`` through the dense parent tables."""
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
    for p in range(pair - 1, -1, -1):
        pb, pr = int(parent_b[p][b, r]), int(parent_r[p][b, r])
        assert pb >= 0, f"no parent for state (pair={p}, groups={b}, cells={r})"
        segments.append(segment(p, pb, b))
        b, r = pb, pr
    assert b == 0, f"witness walk ended at group {b}, expected 0"
    segments.reverse()
    return tuple(segments)


def close_pair_lexsort(lin: np.ndarray, vals: np.ndarray, width: int):
    """The records of a pair's scattered candidates (cells ``lin = row *
    width + col``, values ``vals``, any order, several per cell), by a
    three-key sort: oracle of :func:`repro.core.dp_numpy._close_pair`.

    Sorted by row, then value, then column, a candidate is a record
    exactly when its column is left of every candidate before it in its
    row; one running minimum over ``col - row * width`` (which falls
    from row to row) tests that for all rows at once.  Returns the
    records ``(bs, rs, zs)`` row-major with their values copied
    unchanged; the values need not be integers.
    """
    order = np.lexsort((lin, vals, lin // width))
    cells = lin[order]
    rows = cells // width
    key = cells - rows * (2 * width)
    record = np.ones(len(key), dtype=bool)
    record[1:] = key[1:] < np.minimum.accumulate(key)[:-1]
    cells, rows, vals = cells[record], rows[record], vals[order[record]]
    # Within a row the records came by value ascending, so columns
    # descending: put them row-major.
    back = np.argsort(cells)
    return rows[back], cells[back] - rows[back] * width, vals[back]
