"""The sliced M'' packer against the per-group reference loop, bit for bit.

``repro.assign.greedy_assign`` walks whole wire groups per NumPy call
and memoizes its last lower-pair walk; ``packer_reference`` is the
plain loop it replaced.  Every cursor, wire count and float (compared
by ``float.hex``) must agree, on tables whose areas are dyadic (so
exact ties between the budget and a group's need really occur) and on
tables of physical magnitudes (so rounding does).
"""

import dataclasses
import gc
import sys
import threading
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.assign import greedy_assign
from repro.assign.greedy_assign import (
    _FIRST_SLICE,
    _fill_pair,
    pack_required_leftover,
    pack_suffix,
    pack_suffix_detail,
)

from . import packer_reference as ref
from .test_tables import make_tables


@pytest.fixture(scope="module")
def base(arch130, die130):
    """Real tables whose packer inputs the tests below replace."""
    return make_tables(arch130, die130, [(10.0, 1)])


def synthetic(base, lengths_m, counts, pitch, via_area, vias, capacity):
    """``base`` with the packer's inputs replaced (its other arrays no
    longer match, and the packer never reads them)."""
    counts = np.asarray(counts, dtype=np.int64)
    return dataclasses.replace(
        base,
        lengths_m=np.asarray(lengths_m, dtype=float),
        counts=counts,
        cum_wires=np.concatenate(([0], np.cumsum(counts))),
        pair_pitch=np.asarray(pitch, dtype=float),
        via_area=np.asarray(via_area, dtype=float),
        vias_per_wire=vias,
        routing_capacity=float(capacity),
    )


@st.composite
def tables_inputs(draw, max_groups=70):
    """Packer inputs for 4 pairs: dyadic or physical magnitudes."""
    groups = draw(st.integers(min_value=1, max_value=max_groups))
    counts = draw(st.lists(st.integers(1, 300), min_size=groups, max_size=groups))
    vias = draw(st.integers(min_value=1, max_value=3))
    if draw(st.booleans()):
        # Dyadic: every sum and product is exact, so budgets tie.
        lengths = draw(st.lists(st.integers(1, 64), min_size=groups, max_size=groups))
        pitch = draw(st.lists(st.sampled_from([0.5, 1.0, 2.0]), min_size=4, max_size=4))
        via_area = draw(
            st.lists(st.sampled_from([0.0, 0.125, 0.5, 4.0, 32.0]), min_size=4, max_size=4)
        )
        scale = 1.0
    else:
        lengths = draw(
            st.lists(st.floats(1e-6, 1e-2), min_size=groups, max_size=groups)
        )
        pitch = draw(st.lists(st.floats(1e-7, 2e-6), min_size=4, max_size=4))
        via_area = draw(st.lists(st.floats(1e-16, 1e-12), min_size=4, max_size=4))
        scale = None
    lengths = sorted(lengths, reverse=True)
    total = sum(c * l for c, l in zip(counts, lengths)) * max(pitch)
    capacity = draw(st.floats(0.05, 1.5)) * total / 4
    if scale is not None:
        capacity = float(round(capacity))
    return lengths, counts, pitch, via_area, vias, capacity


def assert_same_fill(got, want):
    (cursor, area), (want_cursor, want_area) = got, want
    assert tuple(cursor) == tuple(want_cursor)
    assert float(area).hex() == float(want_area).hex()


def assert_same_fills(got, want):
    if want is None:
        assert got is None
        return
    want = [(p, w, a.hex()) for p, w, a in want if w]
    assert [(f.pair, f.wires, f.area_used.hex()) for f in got] == want


class TestFillPair:
    @settings(max_examples=150, deadline=None)
    @given(inputs=tables_inputs(), data=st.data())
    def test_matches_reference(self, base, inputs, data):
        tables = synthetic(base, *inputs)
        groups = tables.num_groups
        pair = data.draw(st.integers(0, 3))
        start = data.draw(st.integers(0, groups - 1))
        group = data.draw(st.integers(start, groups - 1))
        carry = data.draw(st.integers(1, int(tables.counts[group])))
        total = carry + int(tables.counts[start:group].sum())
        capacity = data.draw(st.floats(0.0, 1.2)) * tables.routing_capacity * 4
        if tables.routing_capacity == round(tables.routing_capacity):
            capacity = float(round(capacity))
        cursor = (group, carry, total)
        assert_same_fill(
            _fill_pair(tables, pair, capacity, start, cursor),
            ref.fill_pair(tables, pair, capacity, start, cursor),
        )

    @pytest.mark.parametrize("walk", [15, 16, 17, 2 * _FIRST_SLICE, 48])
    @pytest.mark.parametrize("start", [0, 5])
    @pytest.mark.parametrize("carry", [1, 7])
    @pytest.mark.parametrize("slack", [0.0, 0.5, 2.0, 2.5, 3.0, "exhaust"])
    def test_walk_lengths_and_ties(self, base, walk, start, carry, slack):
        """A walk of exactly ``walk`` whole groups from a partial carry-in
        group, then either the supply runs out at ``start_group`` or the
        next group gets ``slack`` wires' worth of budget (0.0 and 3.0 are
        exact ties: nothing of it fits, or all of it does)."""
        groups = start + walk + (0 if slack == "exhaust" else 12)
        lengths = [float(64 - g) for g in range(groups)]
        counts = [3] * groups
        tables = synthetic(base, lengths, counts, [1.0] * 4, [0.0] * 4, 2, 1.0)
        group = groups - 1
        if slack == "exhaust":
            capacity = float(sum(lengths[start:group]) * 3 + lengths[group] * carry)
        else:
            nxt = group - walk
            capacity = float(
                sum(lengths[nxt + 1:group]) * 3
                + lengths[group] * carry
                + lengths[nxt] * slack
            )
        cursor = (group, carry, carry + 3 * (group - start))
        want = ref.fill_pair(tables, 2, capacity, start, cursor)
        assert want[0][0] == group - walk - (slack == 3.0)
        assert_same_fill(_fill_pair(tables, 2, capacity, start, cursor), want)

    def test_falling_slope_groups(self, base):
        """Per-wire area at or below the via footprint (slope <= 0): the
        group fits whole iff its first wire does."""
        lengths = [40.0, 40.0, 8.0, 8.0, 4.0, 2.0, 1.0, 1.0]
        tables = synthetic(base, lengths, [5] * 8, [1.0] * 4, [4.0] * 4, 2, 200.0)
        checked = set()
        for capacity in np.arange(0.0, 400.0, 0.5):
            cursor = (7, 5, 40)
            want = ref.fill_pair(tables, 1, float(capacity), 0, cursor)
            assert_same_fill(_fill_pair(tables, 1, float(capacity), 0, cursor), want)
            checked.add(want[0])
        # Some budgets stop in the falling-slope groups 2-7, others pass them.
        assert (7, 5, 40) in checked
        assert any(cursor[0] < 2 for cursor in checked)


class TestPackFronts:
    @settings(max_examples=150, deadline=None)
    @given(inputs=tables_inputs(), data=st.data())
    def test_matches_reference(self, base, inputs, data):
        tables = synthetic(base, *inputs)
        start = data.draw(st.integers(0, tables.num_groups))
        top = data.draw(st.integers(0, 3))
        wires = data.draw(st.sampled_from([0, 1, 7, 1000]))
        z = data.draw(st.sampled_from([0.0, 3.0, 250.0]))
        leftover = data.draw(
            st.none() | st.floats(0.0, 1.0).map(lambda f: f * tables.routing_capacity)
        )
        want_req = ref.required_leftover(tables, start, top, wires, z)
        got_req = pack_required_leftover(tables, start, top, wires, z)
        assert float(got_req).hex() == float(want_req).hex()
        want = ref.pack(tables, start, top, wires, z, leftover)
        assert_same_fills(
            pack_suffix_detail(tables, start, top, wires, z, leftover), want
        )
        assert pack_suffix(tables, start, top, wires, z, leftover) == (want is not None)
        # The threshold again, now from the memoized lower walk.
        again = pack_required_leftover(tables, start, top, wires, z)
        assert float(again).hex() == float(want_req).hex()


def memo_calls(base):
    """Two tables, two repeater loads: calls whose results differ when
    either the tables or ``repeaters_above`` is mistaken for the other."""
    lengths = [float(64 - g) for g in range(40)]
    first = synthetic(base, lengths, [4] * 40, [1.0] * 4, [0.5] * 4, 2, 2500.0)
    second = synthetic(base, lengths, [5] * 40, [1.0] * 4, [0.5] * 4, 2, 2500.0)
    calls = [
        (tables, start, 1, 10, z)
        for start in (0, 3, 9)
        for tables in (first, second)
        for z in (0.0, 1200.0)
    ]
    want = [
        (ref.pack(*call), ref.required_leftover(*call).hex()) for call in calls
    ]
    return calls, want


def memo_orders(calls):
    """Call orders in which z, or the tables, changes fastest."""
    orders = [
        list(range(len(calls))),
        sorted(range(len(calls)), key=lambda i: (calls[i][1], calls[i][4])),
    ]
    return orders + [order[::-1] for order in orders]


def test_memo_keys_on_tables_and_repeaters(base):
    calls, want = memo_calls(base)
    # Calls that differ only in z, or only in the tables, have different
    # answers: a memo keyed without either returns a stale one when they
    # follow each other.
    for i in range(0, len(calls), 2):
        assert want[i] != want[i + 1]
    for i in range(0, len(calls), 4):
        assert want[i] != want[i + 2]
    for order in memo_orders(calls):
        for i in order:
            fills, threshold = want[i]
            assert_same_fills(pack_suffix_detail(*calls[i]), fills)
            assert pack_required_leftover(*calls[i]).hex() == threshold


def test_memo_interleaved_across_threads(base):
    calls, want = memo_calls(base)
    orders = memo_orders(calls)
    errors = []

    def worker(order):
        for _ in range(25):
            for i in order:
                fills, threshold = want[i]
                got = pack_required_leftover(*calls[i])
                if got.hex() != threshold:
                    errors.append((i, "threshold", got))
                if pack_suffix(*calls[i]) != (fills is not None):
                    errors.append((i, "pack_suffix"))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(o,)) for o in orders]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors


def test_memo_holds_tables_weakly(base):
    tables = synthetic(base, [8.0, 4.0], [3, 3], [1.0] * 4, [0.5] * 4, 2, 100.0)
    pack_suffix(tables, 0, 0, 0, 0.0)
    assert greedy_assign._last_lower[0]() is tables
    alive = weakref.ref(tables)
    del tables
    gc.collect()
    assert alive() is None
