"""Tests for WireLengthDistribution."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import WLDError
from repro.wld.distribution import WireLengthDistribution


@pytest.fixture
def wld():
    return WireLengthDistribution.from_groups(
        [(100.0, 2), (50.0, 5), (10.0, 20), (1.0, 100)]
    )


group_lists = st.lists(
    st.tuples(
        st.floats(min_value=0.5, max_value=1e4, allow_nan=False),
        st.integers(min_value=1, max_value=1000),
    ),
    min_size=1,
    max_size=30,
)


class TestConstruction:
    def test_from_groups_sorts_descending(self):
        wld = WireLengthDistribution.from_groups([(1.0, 3), (5.0, 1), (2.0, 2)])
        assert list(wld.lengths) == [5.0, 2.0, 1.0]

    def test_from_groups_merges_duplicates(self):
        wld = WireLengthDistribution.from_groups([(2.0, 3), (2.0, 4)])
        assert wld.num_groups == 1
        assert wld.total_wires == 7

    def test_from_groups_drops_zero_counts(self):
        wld = WireLengthDistribution.from_groups([(2.0, 3), (5.0, 0)])
        assert wld.num_groups == 1

    def test_from_groups_rejects_negative_counts(self):
        with pytest.raises(WLDError):
            WireLengthDistribution.from_groups([(2.0, -1)])

    def test_direct_rejects_increasing(self):
        with pytest.raises(WLDError):
            WireLengthDistribution(
                lengths=np.array([1.0, 2.0]), counts=np.array([1, 1])
            )

    def test_direct_rejects_non_positive_lengths(self):
        with pytest.raises(WLDError):
            WireLengthDistribution(
                lengths=np.array([2.0, 0.0]), counts=np.array([1, 1])
            )

    def test_direct_rejects_zero_counts(self):
        with pytest.raises(WLDError):
            WireLengthDistribution(
                lengths=np.array([2.0, 1.0]), counts=np.array([1, 0])
            )

    def test_direct_rejects_shape_mismatch(self):
        with pytest.raises(WLDError):
            WireLengthDistribution(lengths=np.array([2.0]), counts=np.array([1, 1]))

    def test_equal_lengths_allowed(self):
        """Bunching produces repeated lengths; they stay separate groups."""
        wld = WireLengthDistribution(
            lengths=np.array([2.0, 2.0, 1.0]), counts=np.array([4, 4, 1])
        )
        assert wld.num_groups == 3

    def test_empty(self):
        wld = WireLengthDistribution.empty()
        assert wld.total_wires == 0
        assert wld.num_groups == 0

    def test_arrays_read_only(self, wld):
        with pytest.raises(ValueError):
            wld.lengths[0] = 5.0


class TestQueries:
    def test_totals(self, wld):
        assert wld.total_wires == 127
        assert wld.total_length == pytest.approx(100 * 2 + 50 * 5 + 10 * 20 + 100)

    def test_extremes(self, wld):
        assert wld.max_length == 100.0
        assert wld.min_length == 1.0

    def test_mean(self, wld):
        assert wld.mean_length == pytest.approx(wld.total_length / 127)

    def test_iteration(self, wld):
        groups = list(wld)
        assert groups[0] == (100.0, 2)
        assert groups[-1] == (1.0, 100)

    def test_group_access(self, wld):
        assert wld.group(1) == (50.0, 5)
        with pytest.raises(WLDError):
            wld.group(4)

    def test_empty_extremes_rejected(self):
        empty = WireLengthDistribution.empty()
        with pytest.raises(WLDError):
            empty.max_length
        with pytest.raises(WLDError):
            empty.mean_length


class TestRankOrderArithmetic:
    def test_prefix_suffix_partition(self, wld):
        prefix = wld.prefix(2)
        suffix = wld.suffix(2)
        assert prefix.total_wires + suffix.total_wires == wld.total_wires
        assert prefix.max_length == 100.0
        assert suffix.max_length == 10.0

    def test_describe_contains_stats(self, wld):
        text = wld.describe()
        assert "127" in text


@given(group_lists)
def test_total_preserved_property(groups):
    wld = WireLengthDistribution.from_groups(groups)
    assert wld.total_wires == sum(c for _, c in groups)


@given(group_lists)
def test_rank_order_property(groups):
    wld = WireLengthDistribution.from_groups(groups)
    assert (np.diff(wld.lengths) < 0).all()  # strictly decreasing after merge


@given(group_lists, st.integers(min_value=0, max_value=30))
def test_prefix_suffix_complement_property(groups, cut):
    wld = WireLengthDistribution.from_groups(groups)
    cut = min(cut, wld.num_groups)
    prefix, suffix = wld.prefix(cut), wld.suffix(cut)
    assert prefix.total_wires + suffix.total_wires == wld.total_wires
    assert prefix.total_length + suffix.total_length == pytest.approx(
        wld.total_length
    )
