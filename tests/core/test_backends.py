"""Kernel parity: the NumPy DP kernel matches the scalar test oracle.

``solve_rank_dp`` always runs the whole-pair kernels of
:mod:`repro.core.dp_numpy`.  The scalar per-state loop is a test oracle
(``tests/dp_oracle.py``); ``solve_rank_oracle`` in the test conftest
patches it in for the kernel, so it runs through the same discretize,
fits check and witness.  The kernel promises *bit-identical* results to it — not merely
the same rank, but the same witness, the same feasibility verdict, and
the same deterministic solver counters.  These tests pin that contract
on randomized instances (Hypothesis) and on the degradation paths
(deadlines, bunching, zero budget) where the two implementations could
plausibly diverge.  ``TestBackendSelection`` pins the removal of the
old kernel-selection knob.
"""

import dataclasses
import time
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.dp as dp
import repro.core.dp_numpy as dp_numpy
from repro import compute_rank
from repro.api import baseline_problem, budget_curve
from repro.core.discretize import CEIL_EPS, RepeaterDiscretization, discretize_repeaters
from repro.core.dp import solve_rank_dp
from repro.errors import DeadlineExceeded, RankComputationError

from .. import dp_oracle
from ..conftest import make_tiny_problem, solve_rank_oracle


def _pair(problem, units, bunch_size=None):
    """Solve on the kernel and the oracle with witness collection;
    return (kernel, oracle)."""
    tables, _ = problem.tables(bunch_size=bunch_size)
    kernel = solve_rank_dp(tables, repeater_units=units, collect_witness=True)
    oracle = solve_rank_oracle(tables, units, collect_witness=True)
    return kernel, oracle


def _assert_identical(kernel, oracle):
    assert kernel.rank == oracle.rank
    assert kernel.fits == oracle.fits
    assert kernel.witness == oracle.witness
    # The deterministic counters are shared by design; the pack_*
    # fields are compare=False precisely because they may differ.
    assert kernel.stats.rows == oracle.stats.rows
    assert kernel.stats.states_explored == oracle.stats.states_explored
    assert kernel.stats.transitions == oracle.stats.transitions
    assert kernel.stats == oracle.stats


class TestParity:
    @pytest.mark.parametrize(
        "lengths,fraction,clock",
        [
            ([1200, 700, 300, 90, 25], 0.2, 5e8),
            ([1500, 1400, 1300], 0.05, 1e9),
            ([2000, 50, 40, 30, 2, 1], 0.3, 5e8),
            ([33], 0.2, 5e8),
        ],
    )
    def test_hand_picked(self, node130, lengths, fraction, clock):
        problem = make_tiny_problem(
            node130, lengths, repeater_fraction=fraction, clock_frequency=clock
        )
        _assert_identical(*_pair(problem, units=32))

    @settings(max_examples=25, deadline=None)
    @given(
        lengths=st.sets(
            st.integers(min_value=2, max_value=1800), min_size=1, max_size=6
        ),
        fraction=st.sampled_from([0.0, 0.03, 0.15, 0.35]),
        clock=st.sampled_from([3e8, 7e8, 1.5e9]),
        units=st.sampled_from([8, 32, 64]),
        semi=st.sampled_from([0, 1]),
    )
    def test_parity_property(
        self, node130, lengths, fraction, clock, units, semi
    ):
        problem = make_tiny_problem(
            node130,
            sorted(lengths, reverse=True),
            repeater_fraction=fraction,
            clock_frequency=clock,
            semi_global_pairs=semi,
        )
        _assert_identical(*_pair(problem, units))

    def test_bunched_parity(self, small_baseline):
        """Full-pipeline problem at group granularity: the kernel and
        the oracle agree on the coarsened instance too, witness
        included."""
        _assert_identical(
            *_pair(small_baseline, units=128, bunch_size=5_000)
        )

    @pytest.mark.parametrize("pair", [1, 2])
    def test_via_saturated_pair(self, node130, pair):
        """A pair whose via blockage eats all its routing area: every
        state below the first group has zero capacity, so its area reach
        ties ``cum_area[b]`` exactly and only the empty extension
        ``e == b`` carries the prefix through to the next pair."""
        problem = make_tiny_problem(
            node130, [1500, 1200, 700, 300, 90, 25], semi_global_pairs=1
        )
        tables, _ = problem.tables()
        via_area = tables.via_area.copy()
        via_area[pair] = 2 * tables.routing_capacity / (
            tables.vias_per_wire * float(tables.cum_wires[1])
        )
        tables = dataclasses.replace(tables, via_area=via_area)
        assert tables.capacity(pair, float(tables.cum_wires[1]), 0.0) == 0.0
        kernel = solve_rank_dp(tables, repeater_units=32, collect_witness=True)
        oracle = solve_rank_oracle(tables, 32, collect_witness=True)
        _assert_identical(kernel, oracle)

    def test_infinite_unit_area_branch(self, node130):
        """Zero repeater fraction drives the inf-unit-area code path
        (every positive area is infeasible) in both."""
        problem = make_tiny_problem(
            node130, [900, 500, 100], repeater_fraction=0.0
        )
        _assert_identical(*_pair(problem, units=8))


class TestTransitionBounds:
    def test_delay_wall_caps_e_hi(self, node130):
        """No state's last end group crosses the pair's first infeasible
        group, even where its routing area would reach past it."""
        problem = make_tiny_problem(
            node130,
            [40000, 20000, 9000, 3000, 1500, 700, 90],
            gate_count=1_000_000,
            clock_frequency=1e9,
            semi_global_pairs=1,
        )
        tables, _ = problem.tables()
        disc = discretize_repeaters(tables, 32)
        stats = dp.SolverStats(solver="dp")
        sources = dp_numpy._start()
        walled = 0
        for pair in range(tables.num_pairs):
            step, cells = dp_numpy._pair_transition(
                tables, disc, stats, sources, pair, None
            )
            wall = tables.next_infeasible[pair][step.bs]
            assert np.all(step.e_hi <= wall)
            cum_area = tables.cum_wire_area[pair]
            beyond = np.minimum(wall + 1, tables.num_groups)
            reach = cum_area[beyond] - cum_area[step.bs]
            walled += int(np.count_nonzero((wall < beyond) & (reach <= step.capacity)))
            sources = dp_numpy._close_pair(*cells, disc.num_units + 1)
        assert walled > 0


def _transitions(tables, units):
    """Every pair's transition of a solve, with its discretization."""
    disc = discretize_repeaters(tables, units)
    stats = dp.SolverStats(solver="dp")
    sources = dp_numpy._start()
    steps = []
    for pair in range(tables.num_pairs):
        step, cells = dp_numpy._pair_transition(tables, disc, stats, sources, pair, None)
        steps.append(step)
        sources = dp_numpy._close_pair(*cells, disc.num_units + 1)
    return disc, steps


def _dense_candidates(tables, disc, step, pair):
    """Every candidate of ``step``, one state at a time with the scalar
    oracle's arithmetic, in processing order: ``(sid, es, nr, nz,
    leftover, valid)``."""
    cum_area = tables.cum_wire_area[pair]
    cum_ins = tables.cum_inserted[pair]
    cum_rep = tables.cum_rep_area[pair]
    parts = []
    for s, (b, r, z, e_hi) in enumerate(zip(step.bs, step.rs, step.zs, step.e_hi)):
        es = np.arange(b, e_hi + 1)
        capacity = tables.capacity(pair, float(tables.cum_wires[b]), float(z))
        du = disc.cells(cum_rep[es] - cum_rep[b])
        parts.append((
            np.full(len(es), s),
            es,
            r + du,
            z + (cum_ins[es] - cum_ins[b]),
            capacity - (cum_area[es] - cum_area[b]),
            r + du <= disc.num_units,
        ))
    return [np.concatenate(a) for a in zip(*parts)]


def _same_bits(a, b):
    return a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.fixture(scope="module")
def stacks(node130, small_baseline):
    """Real tables with their cell counts: tiny, via-saturated, zero
    budget and a bunched full pipeline."""
    saturated, _ = make_tiny_problem(
        node130, [1500, 1200, 700, 300, 90, 25], semi_global_pairs=1
    ).tables()
    via_area = saturated.via_area.copy()
    via_area[1] = 2 * saturated.routing_capacity / (
        saturated.vias_per_wire * float(saturated.cum_wires[1])
    )
    return [
        (make_tiny_problem(
            node130, [1200, 700, 300, 90, 25], repeater_fraction=0.2
        ).tables()[0], 32),
        (dataclasses.replace(saturated, via_area=via_area), 32),
        (make_tiny_problem(
            node130, [900, 500, 100], repeater_fraction=0.0
        ).tables()[0], 8),
        (small_baseline.tables(bunch_size=5_000)[0], 128),
    ]


class TestCandidates:
    """``_candidates`` rebuilds, for any band of end groups, exactly the
    transition's valid candidates: same states, same order, bit-identical
    floats; ``_levels`` lists exactly the levels that hold any."""

    def test_levels_match_dense_enumeration(self, stacks):
        empty = short = 0
        for tables, units in stacks:
            disc, steps = _transitions(tables, units)
            for pair, step in enumerate(steps):
                sid, es, nr, nz, left, valid = _dense_candidates(tables, disc, step, pair)
                # Each state's valid ends are the prefix [b, v_hi].
                assert np.array_equal(valid, es <= step.v_hi[sid])
                short += int(np.count_nonzero(step.v_hi < step.e_hi))

                levels = dp_numpy._levels(step, tables.num_groups)
                assert np.array_equal(levels, np.unique(es[valid]))
                empty += tables.num_groups + 1 - len(levels)
                for e in range(tables.num_groups + 1):
                    want = valid & (es == e)
                    got = dp_numpy._candidates(tables, disc, step, pair, e, e)
                    self._assert_same(got, [a[want] for a in (sid, es, nr, nz, left)])
                # A band, as the budget curve asks for it.
                lo = tables.num_groups // 2
                want = valid & (es >= lo)
                got = dp_numpy._candidates(tables, disc, step, pair, lo, tables.num_groups)
                self._assert_same(got, [a[want] for a in (sid, es, nr, nz, left)])
        # Some level is empty, and some state's budget runs out before
        # its area reach: neither the coverage skip nor v_hi is vacuous
        # here.
        assert empty > 0
        assert short > 0

    def test_levels_skip_gaps(self):
        """Real stacks cover one span of levels; the coverage count
        does not rely on that."""
        bs = np.array([0, 0, 4, 9])
        v_hi = np.array([1, -1, 5, 9])
        step = dp_numpy._PairTransition(bs, bs, bs, bs, v_hi, v_hi, 0, 0.0)
        assert dp_numpy._levels(step, 12).tolist() == [0, 1, 4, 5, 9]

    @staticmethod
    def _assert_same(got, want):
        g_sid, g_es, g_nr, g_nz, g_left = got
        w_sid, w_es, w_nr, w_nz, w_left = want
        assert np.array_equal(g_sid, w_sid)
        assert np.array_equal(g_es, w_es)
        assert np.array_equal(g_nr, w_nr.astype(np.int64))
        assert _same_bits(g_nz, w_nz)
        assert _same_bits(g_left, w_left)


def _dense_close(table):
    """The close the sparse one replaced: cummin over budgets, then the
    strict decreases of each row."""
    f = np.minimum.accumulate(table, axis=1)
    use = np.isfinite(f)
    use[:, 1:] &= f[:, 1:] < f[:, :-1]
    bs, rs = np.nonzero(use)
    return bs, rs, f[bs, rs]


def _dense_close_rows(lin, vals, width):
    """:func:`_dense_close` of scattered candidates, over their own rows
    only, so that sparse rows far apart need no table of the rows
    between."""
    rows, at = np.unique(lin // width, return_inverse=True)
    table = np.full((len(rows), width), np.inf)
    np.minimum.at(table, (at, lin % width), vals)
    bs, rs, zs = _dense_close(table)
    return rows[bs], rs, zs


@st.composite
def _scattered(draw):
    """A pair's scattered candidates ``(lin, vals, width)``: integer
    values up to 2^40 on rows up to 2^13 of up to 4096 cells (so some
    keys pass int64 and the close splits into row blocks), with equal
    and worse copies of some, shuffled."""
    if draw(st.booleans()):
        width, row_top, z_top = 4096, 1 << 13, 1 << 40
    else:
        width = draw(st.sampled_from([1, 2, 7, 64, 513]))
        row_top = draw(st.sampled_from([0, 5, 40]))
        z_top = draw(st.sampled_from([0, 3, 1 << 20]))
    # The extremes as often as not, so the wide draws split.
    cands = draw(st.lists(
        st.tuples(
            st.integers(0, row_top) | st.just(row_top),
            st.integers(0, width - 1),
            st.integers(0, z_top) | st.sampled_from([0, z_top]),
        ),
        max_size=60,
    ))
    copies = draw(st.lists(
        st.tuples(st.integers(0, 1 << 16), st.integers(0, 2)), max_size=30
    ))
    if cands:
        cands += [
            (row, col, z + extra)
            for (row, col, z), extra in ((cands[i % len(cands)], e) for i, e in copies)
        ]
    rows, cols, zs = np.array(cands, dtype=np.int64).reshape(-1, 3).T
    order = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).permutation(len(zs))
    return (rows * width + cols)[order], zs[order].astype(float), width


class TestClosePair:
    """``_close_pair`` reads the dense close's sources, exactly, out of
    a pair's scattered candidates given in any order, with several per
    cell.  Real workloads have at most one record per row, so the
    several-records branch is pinned here."""

    @staticmethod
    def _close(table, seed=0):
        """Close the candidates of ``table``: each finite cell once with
        its value, plus worse and equal copies of some, shuffled."""
        rng = np.random.default_rng(seed)
        width = table.shape[1]
        lin = np.flatnonzero(np.isfinite(table))
        vals = table.ravel()[lin]
        again = rng.random(len(lin)) < 0.5
        lin = np.concatenate((lin, lin[again], lin[again]))
        vals = np.concatenate((vals, vals[again], vals[again] + rng.integers(1, 3, again.sum())))
        order = rng.permutation(len(lin))
        return dp_numpy._close_pair(lin[order], vals[order], width)

    def _assert_matches_dense(self, table, seed=0):
        got = self._close(table, seed)
        for a, b in zip(got, _dense_close(table)):
            assert a.dtype.kind == b.dtype.kind
            assert np.array_equal(a, b)

    def test_handmade_rows(self):
        """Values are repeater counts, so integers: the table is twice
        one with halves in it, which keeps every tie and record."""
        inf = np.inf
        table = 2 * np.array(
            [
                [0.0, inf, inf, inf, inf, inf],  # record in column 0 only
                [inf, inf, inf, inf, inf, inf],  # all inf
                [inf, 5.0, 7.0, 3.0, 3.0, 1.0],  # records 5, 3, 1; tie 3
                [2.0, 2.0, inf, 1.5, 2.0, 1.5],  # ties are not records
                [inf, inf, inf, inf, inf, 4.0],  # record in the last column
                [9.0, 8.0, 7.0, 6.0, 5.0, 4.0],  # every cell a record
            ]
        )
        bs, rs, zs = self._close(table)
        assert list(zip(bs, rs, zs)) == [
            (0, 0, 0.0),
            (2, 1, 10.0), (2, 3, 6.0), (2, 5, 2.0),
            (3, 0, 4.0), (3, 3, 3.0),
            (4, 5, 8.0),
            (5, 0, 18.0), (5, 1, 16.0), (5, 2, 14.0),
            (5, 3, 12.0), (5, 4, 10.0), (5, 5, 8.0),
        ]
        for seed in range(4):
            self._assert_matches_dense(table, seed)

    @pytest.mark.parametrize("seed", range(8))
    def test_random_sparse_tables(self, seed):
        """Small integer values make ties common; the density sweeps
        from mostly-empty rows to full ones."""
        rng = np.random.default_rng(seed)
        shape = (int(rng.integers(1, 40)), int(rng.integers(1, 30)))
        table = rng.integers(0, 6, size=shape).astype(float)
        table[rng.random(shape) >= rng.uniform(0.02, 1.0)] = np.inf
        self._assert_matches_dense(table, seed)

    def test_empty_buffer(self):
        bs, rs, zs = self._close(np.full((3, 4), np.inf))
        assert len(bs) == len(rs) == len(zs) == 0

    @settings(max_examples=150, deadline=None)
    @given(scattered=_scattered())
    def test_matches_oracles_property(self, scattered):
        """The packed-key close, the three-key lexsort close and the
        dense close agree bit for bit, whatever the candidates' order,
        copies and value range."""
        lin, vals, width = scattered
        got = dp_numpy._close_pair(lin, vals, width)
        for want in (dp_oracle.close_pair_lexsort(lin, vals, width),
                     _dense_close_rows(lin, vals, width)):
            for a, b in zip(got, want):
                assert _same_bits(a, b)

    def test_row_block_split(self, monkeypatch):
        """Values 2^40 apart on 2^13 rows of 4096 cells: a key of the
        whole would pass 2^63, so the close runs on blocks of whole
        rows, and their records are the whole's."""
        rng = np.random.default_rng(3)
        width, n = 4096, 400
        rows = np.sort(rng.choice(1 << 13, 60, replace=False))
        lin = rng.choice(rows, n) * width + rng.integers(0, width, n)
        vals = rng.integers(0, 1 << 40, n).astype(float)
        vals[:2] = 0.0, float(1 << 40)
        lin = np.concatenate((lin, lin[:50], lin[:50]))
        vals = np.concatenate((vals, vals[:50], vals[:50] + 1))
        order = rng.permutation(len(lin))
        lin, vals = lin[order], vals[order]
        assert (int(lin.max()) + 1) * ((1 << 40) + 1) > np.iinfo(np.int64).max

        blocks = []
        real = dp_numpy._close_rows
        monkeypatch.setattr(
            dp_numpy, "_close_rows", lambda *a: blocks.append(a[3]) or real(*a)
        )
        got = dp_numpy._close_pair(lin, vals, width)
        assert len(blocks) > 1
        assert len(got[0]) > len(rows)  # some rows hold several records
        for want in (dp_oracle.close_pair_lexsort(lin, vals, width),
                     _dense_close_rows(lin, vals, width)):
            for a, b in zip(got, want):
                assert _same_bits(a, b)

    def test_unpackable_row_is_named(self):
        """A value range so wide that one row of cells overflows a key
        is refused with a named error, never a wrapped sort."""
        width = 1 << 11
        lin = np.array([0, 5 * width], dtype=np.int64)
        vals = np.array([0.0, 2.0**53 - 1])
        with pytest.raises(RankComputationError, match="int64 sort key"):
            dp_numpy._close_pair(lin, vals, width)


class TestLevelOrder:
    """The budget curve's candidate order is a stable sort by end group,
    then cells: the packed keys give the two-key lexsort's order."""

    @settings(max_examples=60, deadline=None)
    @given(
        pairs=st.lists(
            st.tuples(st.integers(0, 40), st.integers(0, 8)), max_size=80
        )
    )
    def test_matches_lexsort(self, pairs):
        es = np.array([e for e, _ in pairs], dtype=np.int64)
        nr = np.array([r for _, r in pairs], dtype=np.int64)
        want = np.lexsort((nr, es))
        assert np.array_equal(dp_numpy._level_order(es, nr, 9), want)


def _hand_tables(cum_rep, cum_ins=None, wire_area=None, routing=1.0, infeasible=()):
    """One hand-built pair: what the transition reads of a table, with
    free wire area unless given and every group feasible but those in
    ``infeasible``, whose wall ``next_infeasible`` states."""
    cum_rep = np.asarray(cum_rep, dtype=float)
    groups = len(cum_rep) - 1
    row = lambda a: np.asarray(a, dtype=float)[None, :]
    blocked = [min([g for g in infeasible if g >= b], default=groups) for b in range(groups + 1)]
    return types.SimpleNamespace(
        num_groups=groups,
        cum_wires=np.arange(groups + 1),
        cum_wire_area=row(np.zeros(groups + 1) if wire_area is None else wire_area),
        cum_rep_area=row(cum_rep),
        cum_inserted=row(np.zeros(groups + 1) if cum_ins is None else cum_ins),
        next_infeasible=np.array([blocked]),
        via_area=np.zeros(1),
        vias_per_wire=0,
        routing_capacity=routing,
    )


def _clip_and_dense(tables, units, unit_area, sources):
    """The transition of hand-built ``tables`` from ``sources`` and the
    same pair by dense enumeration with the oracle's arithmetic.
    Returns ``(step, first, records, dense_v_hi, dense_records)``."""
    disc = RepeaterDiscretization(units, unit_area)
    bs, rs, zs = (np.asarray(a) for a in sources)
    sources = (bs.astype(np.int64), rs.astype(np.int64), zs.astype(float))
    step, cells = dp_numpy._pair_transition(
        tables, disc, dp.SolverStats(), sources, 0, None
    )
    assert np.array_equal(step.bs, sources[0])  # every state extends
    cum_ins, cum_rep = tables.cum_inserted[0], tables.cum_rep_area[0]
    first = dp_numpy._first_kept(cum_rep, cum_ins, disc, *sources, step.v_hi)
    records = dp_numpy._close_pair(*cells, disc.num_units + 1)

    table = np.full((tables.num_groups + 1, disc.num_units + 1), np.inf)
    v_hi = []
    for b, r, z, e_hi in zip(*sources, step.e_hi):
        es = np.arange(b, e_hi + 1)
        nr = r + disc.cells(cum_rep[es] - cum_rep[b])
        valid = nr <= disc.num_units
        # The valid ends are a prefix of the range.
        v_hi.append(b - 1 + int(np.argmin(np.append(valid, False))))
        assert not valid[v_hi[-1] - b + 1:].any()
        nz = z + (cum_ins[es] - cum_ins[b])
        np.minimum.at(table, (es[valid], nr[valid].astype(np.int64)), nz[valid])
    return step, first, records, np.array(v_hi), _dense_close(table)


def _assert_exact(step, records, v_hi, dense):
    assert np.array_equal(step.v_hi, v_hi)
    for got, want in zip(records, dense):
        assert _same_bits(got, want)


class TestClip:
    """The dominance clip of ``_pair_transition`` scatters fewer
    candidates but gives the records and ``v_hi`` of a dense per-state
    enumeration, floats equal as bytes.  Hand-built tables pin the
    edges of each dominance test; the real stacks check it at scale."""

    def test_real_tables_match_dense(self, stacks):
        clipped = 0
        for tables, units in stacks:
            disc = discretize_repeaters(tables, units)
            sources = dp_numpy._start()
            for pair in range(tables.num_pairs):
                step, cells = dp_numpy._pair_transition(
                    tables, disc, dp.SolverStats(), sources, pair, None
                )
                sources = dp_numpy._close_pair(*cells, disc.num_units + 1)
                _, es, nr, nz, _, valid = _dense_candidates(tables, disc, step, pair)
                table = np.full((tables.num_groups + 1, disc.num_units + 1), np.inf)
                np.minimum.at(table, (es[valid], nr[valid].astype(np.int64)), nz[valid])
                for got, want in zip(sources, _dense_close(table)):
                    assert _same_bits(got, want)
                assert step.scattered <= int(valid.sum())
                clipped += int(valid.sum()) - step.scattered
        assert clipped > 0

    def test_compaction_is_exact(self, stacks, monkeypatch):
        """A pair holding more than ``_COMPACT`` candidates reduces them
        to their records as it goes; the records do not change."""
        def records(tables, units):
            disc = discretize_repeaters(tables, units)
            sources, out = dp_numpy._start(), []
            for pair in range(tables.num_pairs):
                _, cells = dp_numpy._pair_transition(
                    tables, disc, dp.SolverStats(), sources, pair, None
                )
                sources = dp_numpy._close_pair(*cells, disc.num_units + 1)
                out.append(sources)
            return out

        want = [records(*stack) for stack in stacks]
        closes = []
        real = dp_numpy._close_pair
        monkeypatch.setattr(
            dp_numpy, "_close_pair", lambda *a: closes.append(1) or real(*a)
        )
        monkeypatch.setattr(dp_numpy, "_BLOCK", 7)
        monkeypatch.setattr(dp_numpy, "_COMPACT", 16)
        got = [records(*stack) for stack in stacks]
        assert len(closes) > sum(tables.num_pairs for tables, _ in stacks)
        for g, w in zip(got, want):
            for g_pair, w_pair in zip(g, w):
                for a, b in zip(g_pair, w_pair):
                    assert _same_bits(a, b)

    def test_compaction_time_is_close_time(self, stacks, monkeypatch):
        """A pair that reduces its candidates on the way reports the time
        as ``close_s``, which the solve counts as close, not transition;
        a pair that holds them all reports none."""
        tables, units = stacks[-1]
        disc = discretize_repeaters(tables, units)

        def close_times():
            sources, out = dp_numpy._start(), []
            for pair in range(tables.num_pairs):
                step, cells = dp_numpy._pair_transition(
                    tables, disc, dp.SolverStats(), sources, pair, None
                )
                sources = dp_numpy._close_pair(*cells, disc.num_units + 1)
                out.append(step.close_s)
            return out

        assert close_times() == [0.0] * tables.num_pairs
        monkeypatch.setattr(dp_numpy, "_COMPACT", 16)
        assert max(close_times()) > 0.0

    def test_ceil_eps_edge_does_not_clip(self):
        """State 0 pays ``1 + 5e-10`` cells more than state 1 to reach
        group 1: one cell once ceil'd with ``CEIL_EPS``, so a ceil'd
        cost would call it no worse than state 1's one extra cell.  At
        group 2 it crosses a cell boundary that state 1 does not."""
        u = 1.0
        tables = _hand_tables([0.0, 1 + 5e-10, 1 + 5e-10 + 7.5e-10, 3.0, 4.0])
        cost = tables.cum_rep_area[0][1] / u
        assert np.ceil(cost - CEIL_EPS) <= 1 < cost
        step, first, records, v_hi, dense = _clip_and_dense(
            tables, 8, u, ([0, 1], [0, 1], [0.0, 0.0])
        )
        _assert_exact(step, records, v_hi, dense)
        assert first.tolist() == [0, 1]
        assert (2, 1, 0.0) in zip(*records)  # state 1's, a cell ahead

    def test_equal_cost_keeps_earlier_parent(self):
        """Group 0 is free, so states 0 and 1 (same ``r`` and ``z``)
        give identical candidates from group 1 on: state 1 is clipped
        whole, and the parent of every cell is still state 0, the first
        in processing order as in the scalar loop."""
        tables = _hand_tables([0.0, 0.0, 1.5, 2.5, 4.0])
        step, first, records, v_hi, dense = _clip_and_dense(
            tables, 4, 1.0, ([0, 1], [0, 0], [0.0, 0.0])
        )
        _assert_exact(step, records, v_hi, dense)
        assert first[1] > step.v_hi[1] >= 1
        disc = RepeaterDiscretization(4, 1.0)
        snapshots = [(step.bs, step.rs, step.zs, step.e_hi), records + (None,)]
        # A second pair below, where the walk starts with an empty slice.
        for name in ("cum_rep_area", "cum_inserted"):
            setattr(tables, name, np.repeat(getattr(tables, name), 2, axis=0))
        walked = 0
        for b, r, _ in zip(*records):
            if b >= 1:
                b, r = int(b), int(r)
                witness = dp_numpy._witness(tables, disc, snapshots, (1, b, b, r))
                assert witness == (
                    dp.WitnessSegment(0, 0, b, r, 0),
                    dp.WitnessSegment(1, b, b, 0, 0),
                )
                walked += 1
        assert walked == 4  # rows 1-4: state 1's whole range

    def test_inserted_repeaters_decide(self):
        """State 0 is cheaper in cells and reaches as far, but group 0
        inserts 3 repeaters, so from group 1 on its candidates carry 2
        more than state 1's: the ``z`` test alone keeps state 1."""
        tables = _hand_tables(
            [0.0, 0.0, 1.0, 2.0, 3.0], cum_ins=[0.0, 3.0, 3.0, 4.0, 4.0]
        )
        step, first, records, v_hi, dense = _clip_and_dense(
            tables, 8, 1.0, ([0, 1], [0, 2], [0.0, 1.0])
        )
        _assert_exact(step, records, v_hi, dense)
        assert first.tolist() == [0, 1]
        assert (4, 5, 2.0) in zip(*records)  # state 1's

    def test_short_reach_does_not_clip(self):
        """State 0 is no worse in cells or repeaters, but its routing
        area ends at group 1: it cannot clip state 1, which starts at 3,
        nor make it scatter before its own start."""
        tables = _hand_tables(
            [0.0] * 6, wire_area=[0.0, 1.0, 2.0, 3.0, 3.5, 4.0], routing=1.5
        )
        step, first, records, v_hi, dense = _clip_and_dense(
            tables, 4, 1.0, ([0, 3], [0, 0], [0.0, 0.0])
        )
        _assert_exact(step, records, v_hi, dense)
        assert step.v_hi.tolist() == [1, 5]
        assert first.tolist() == [0, 3]

    def test_zero_budget(self):
        """``unit_area = inf``: only free slices fit, and a free earlier
        state clips a later one over its whole free run."""
        tables = _hand_tables([0.0, 0.0, 0.0, 2.0, 2.0, 3.0])
        step, first, records, v_hi, dense = _clip_and_dense(
            tables, 0, np.inf, ([0, 1, 3], [0, 0, 0], [0.0, 0.0, 0.0])
        )
        _assert_exact(step, records, v_hi, dense)
        assert step.v_hi.tolist() == [2, 2, 4]
        assert first.tolist() == [0, 3, 3]

    def test_wall_from_next_infeasible(self):
        """Group 2 cannot meet delay: it adds no repeater area, so
        ``cum_rep`` stays finite, and only ``next_infeasible`` walls it,
        here inside every state's area and budget reach.  States before
        it end at it; a state at it takes the empty slice, and one past
        it extends over the groups after it."""
        tables = _hand_tables([0.0, 1.0, 2.0, 2.0, 3.0, 4.0], infeasible=[2])
        assert tables.next_infeasible[0].tolist() == [2, 2, 2, 5, 5, 5]
        step, first, records, v_hi, dense = _clip_and_dense(
            tables, 8, 1.0, ([0, 1, 2, 3], [0, 3, 1, 0], [0.0, 0.0, 0.0, 0.0])
        )
        _assert_exact(step, records, v_hi, dense)
        assert step.e_hi.tolist() == [2, 2, 2, 5]
        assert step.v_hi.tolist() == [2, 2, 2, 5]
        assert (2, 1, 0.0) in zip(*records)  # state 2's empty slice
        assert (5, 2, 0.0) in zip(*records)  # state 3 past the wall

    def test_margin_covers_rounding(self):
        """Unrounded, state 0's extra cost to reach state 1's start is
        no more than state 1's one extra cell, yet at group 3 rounding
        charges state 0 two cells and state 1 none: the margin, not the
        bare unrounded cost, keeps state 1."""
        u = 0.710461060344833
        c0, c1, c3 = 11.426685348615184, 12.137146408960017, 12.137146409670478
        tables = _hand_tables([0.0, c0, c1, c3, c3 + 10.0])
        assert 0 - c0 / u <= 1 - c1 / u
        step, first, records, v_hi, dense = _clip_and_dense(
            tables, 8, u, ([1, 2], [0, 1], [0.0, 0.0])
        )
        _assert_exact(step, records, v_hi, dense)
        assert first.tolist() == [1, 2]
        assert (3, 1, 0.0) in zip(*records)  # state 1's, a cell ahead

    def test_fix_up_walks_past_the_guess(self):
        """Groups ulps apart at the budget's area bound: the area guess
        keeps two that the cell test rejects, so the fix-up must step
        back twice."""
        c0, u, units = 0.3, 0.1, 6
        bound = c0 + (units + CEIL_EPS) * u
        near = bound + np.arange(-4, 5) * np.spacing(bound)
        tables = _hand_tables(np.concatenate(([0.0, c0], near, [c0 + 7.0])))
        within = np.ceil((near - c0) / u - CEIL_EPS) <= units
        assert np.count_nonzero(within != (near <= bound)) == 2
        step, _, records, v_hi, dense = _clip_and_dense(
            tables, units, u, ([0, 1], [0, 0], [0.0, 0.0])
        )
        _assert_exact(step, records, v_hi, dense)
        assert step.v_hi[1] == 1 + np.count_nonzero(within)


def _counters(stats):
    return (
        stats.rows,
        stats.states_explored,
        stats.transitions,
        stats.pack_checks,
        stats.pack_successes,
        stats.pack_pruned,
    )


class TestBlockedTransition:
    """The numpy transition walks source states in runs of about
    ``_BLOCK`` candidates; the run boundaries must not show in any
    output, including the pack counters."""

    BLOCKS = (1, 7, 10**9)

    @pytest.fixture(scope="class")
    def problems(self, node130, small_baseline):
        tiny = make_tiny_problem(
            node130, [2000, 1200, 700, 300, 90, 25], repeater_fraction=0.3
        )
        return [(tiny, None, 32), (small_baseline, 5_000, 128)]

    @staticmethod
    def _solve(problem, bunch, units):
        return compute_rank(
            problem,
            solver="dp",
            bunch_size=bunch,
            repeater_units=units,
            collect_witness=True,
        )

    @pytest.mark.parametrize("block", BLOCKS)
    def test_rank_solve_independent_of_block(self, problems, block, monkeypatch):
        default = [self._solve(*case) for case in problems]
        monkeypatch.setattr(dp_numpy, "_BLOCK", block)
        for (problem, bunch, units), ref in zip(problems, default):
            res = self._solve(problem, bunch, units)
            assert res.rank == ref.rank
            assert res.witness == ref.witness
            assert _counters(res.stats) == _counters(ref.stats)
            tables, _ = problem.tables(bunch_size=bunch)
            _assert_identical(
                res, solve_rank_oracle(tables, units, collect_witness=True)
            )
        # Some state has more candidates than a block of 7 holds, so
        # the single-state run is exercised.
        assert ref.stats.transitions > 7 * ref.stats.states_explored

    @pytest.mark.parametrize("block", BLOCKS)
    def test_budget_curve_independent_of_block(
        self, small_baseline, block, monkeypatch
    ):
        ref, _ = budget_curve(small_baseline, bunch_size=5_000, repeater_units=64)
        monkeypatch.setattr(dp_numpy, "_BLOCK", block)
        curve, _ = budget_curve(small_baseline, bunch_size=5_000, repeater_units=64)
        assert list(curve.ranks) == list(ref.ranks)
        assert _counters(curve.stats) == _counters(ref.stats)


class TestMemory:
    """The transition never holds a whole layer-pair's candidates, nor a
    dense ``(G+1) x (R+1)`` table: at this size the solve peaks at
    ~1.3 MB with or without a witness, whose snapshots keep only each
    pair's source states (tracemalloc counts numpy's buffers; holding
    a whole pair's candidates peaked at ~54 MB, the dense scatter
    buffer at ~7.3 MB)."""

    @staticmethod
    def _peak(collect_witness):
        problem = baseline_problem("130nm", 1_000_000)
        tracemalloc.start()
        try:
            compute_rank(
                problem,
                bunch_size=10_000,
                repeater_units=512,
                collect_witness=collect_witness,
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak

    def test_no_whole_pair_candidate_arrays(self):
        assert self._peak(collect_witness=False) < 40 * 2**20

    def test_no_whole_pair_candidate_arrays_with_witness(self):
        assert self._peak(collect_witness=True) < 40 * 2**20


class TestDeadline:
    def test_transition_checks_deadline_every_run(
        self, small_baseline, monkeypatch
    ):
        """A pair with many runs checks the deadline before each one,
        so one long pair cannot overrun it.  Runs hold kept candidates
        only, so a state the dominance clip empties gets no run (and
        no check); this pair has some of each."""
        tables, _ = small_baseline.tables(bunch_size=5_000)
        disc = discretize_repeaters(tables, 128)
        monkeypatch.setattr(dp_numpy, "_BLOCK", 1)
        stats = dp.SolverStats(solver="dp")
        _, cells = dp_numpy._pair_transition(
            tables, disc, stats, dp_numpy._start(), 0, None
        )
        sources = dp_numpy._close_pair(*cells, disc.num_units + 1)

        checks = []
        real = dp_numpy.check_deadline
        monkeypatch.setattr(
            dp_numpy, "check_deadline", lambda d, where: checks.append(where) or real(d, where)
        )
        step, _ = dp_numpy._pair_transition(tables, disc, stats, sources, 1, None)
        first = dp_numpy._first_kept(
            tables.cum_rep_area[1], tables.cum_inserted[1], disc,
            step.bs, step.rs, step.zs, step.v_hi,
        )
        runs = int(np.count_nonzero(step.v_hi >= first))
        assert 1 < runs < np.count_nonzero(step.v_hi >= step.bs)
        assert checks == ["dp pair 1 run"] * runs

        expired = time.monotonic() - 1.0
        with pytest.raises(DeadlineExceeded, match="dp pair 1 run"):
            dp_numpy._pair_transition(tables, disc, stats, sources, 1, expired)

    def test_expired_deadline_raises_on_both(self, node130):
        problem = make_tiny_problem(node130, [1200, 700, 300])
        tables, _ = problem.tables()
        expired = time.monotonic() - 1.0
        with pytest.raises(DeadlineExceeded):
            solve_rank_dp(tables, repeater_units=16, deadline=expired)
        with pytest.raises(DeadlineExceeded):
            solve_rank_oracle(tables, 16, deadline=expired)


@pytest.fixture
def numpy_calls(monkeypatch):
    """Count ``solve_pairs_numpy`` calls; fail if the oracle runs."""
    calls = []
    real = dp_numpy.solve_pairs_numpy

    def spy(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    def oracle(*args, **kwargs):
        raise AssertionError("the scalar oracle ran in a product path")

    monkeypatch.setattr(dp_numpy, "solve_pairs_numpy", spy)
    monkeypatch.setattr(dp_oracle, "solve_pairs_python", oracle)
    return calls


class TestBackendSelection:
    """There is one DP kernel: no registry, no ``backend=`` parameter
    and no environment variable choose another."""

    def test_resolve_rejects_unknown(self):
        for name in ("BACKENDS", "BACKEND_ENV", "resolve_backend"):
            assert not hasattr(dp, name)

    def test_resolve_default_is_numpy(self, node130, numpy_calls):
        problem = make_tiny_problem(node130, [800, 200])
        compute_rank(problem, repeater_units=8)
        assert numpy_calls == [1]

    def test_env_var_selects_backend(self, node130, monkeypatch, numpy_calls):
        """``REPRO_RANK_BACKEND=python`` has no effect."""
        problem = make_tiny_problem(node130, [800, 200])
        plain = compute_rank(problem, repeater_units=8)
        monkeypatch.setenv("REPRO_RANK_BACKEND", "python")
        assert compute_rank(problem, repeater_units=8) == plain
        assert numpy_calls == [1, 1]

    def test_explicit_backend_overrides_env(self, node130):
        problem = make_tiny_problem(node130, [800, 200])
        tables, _ = problem.tables()
        with pytest.raises(TypeError, match="backend"):
            solve_rank_dp(tables, repeater_units=8, backend="numpy")
        with pytest.raises(TypeError, match="backend"):
            compute_rank(problem, repeater_units=8, backend="numpy")

    def test_invalid_backend_rejected_eagerly(self, node130):
        problem = make_tiny_problem(node130, [800, 200])
        with pytest.raises(TypeError, match="backend"):
            compute_rank(problem, solver="greedy", backend="fortran")
