"""Tests for bunching and binning (paper Section 5.1)."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import WLDError
from repro.wld.coarsen import bin_wld, bunch_wld, coarsen, max_bunch_count
from repro.wld.distribution import WireLengthDistribution

group_lists = st.lists(
    st.tuples(
        st.floats(min_value=0.5, max_value=1e4, allow_nan=False),
        st.integers(min_value=1, max_value=5000),
    ),
    min_size=1,
    max_size=25,
)


class TestBunching:
    def test_paper_example(self):
        """100 wires of one size at bunch 40 -> bunches of 40, 40, 20."""
        wld = WireLengthDistribution.from_groups([(7.0, 100)])
        bunched = bunch_wld(wld, 40)
        assert list(bunched.counts) == [40, 40, 20]
        assert set(bunched.lengths) == {7.0}

    def test_exact_multiple(self):
        wld = WireLengthDistribution.from_groups([(7.0, 80)])
        assert list(bunch_wld(wld, 40).counts) == [40, 40]

    def test_small_groups_untouched(self):
        wld = WireLengthDistribution.from_groups([(7.0, 10), (3.0, 5)])
        bunched = bunch_wld(wld, 40)
        assert list(bunched.counts) == [10, 5]

    def test_total_preserved(self):
        wld = WireLengthDistribution.from_groups([(9.0, 123), (2.0, 4567)])
        assert bunch_wld(wld, 100).total_wires == wld.total_wires

    def test_max_bunch_bound(self):
        wld = WireLengthDistribution.from_groups([(9.0, 123), (2.0, 4567)])
        assert max_bunch_count(bunch_wld(wld, 100)) <= 100

    def test_invalid_bunch_size(self):
        wld = WireLengthDistribution.from_groups([(1.0, 1)])
        with pytest.raises(WLDError):
            bunch_wld(wld, 0)

    def test_max_bunch_count_empty(self):
        assert max_bunch_count(WireLengthDistribution.empty()) == 0

    @given(group_lists, st.integers(min_value=1, max_value=500))
    def test_bunching_properties(self, groups, bunch_size):
        wld = WireLengthDistribution.from_groups(groups)
        bunched = bunch_wld(wld, bunch_size)
        assert bunched.total_wires == wld.total_wires
        assert bunched.total_length == pytest.approx(wld.total_length)
        assert max_bunch_count(bunched) <= bunch_size
        assert (np.diff(bunched.lengths) <= 0).all()

    @given(group_lists, st.sampled_from([1, 2, 7, 40, 5000, 2**62, 2**80]))
    def test_matches_reference_loop(self, groups, bunch_size):
        """Byte for byte the per-group loop ``bunch_wld`` replaced."""
        wld = WireLengthDistribution.from_groups(groups)
        lengths, counts = [], []
        for length, count in wld:
            full, remainder = divmod(count, bunch_size)
            lengths.extend([length] * full)
            counts.extend([bunch_size] * full)
            if remainder:
                lengths.append(length)
                counts.append(remainder)
        bunched = bunch_wld(wld, bunch_size)
        for got, want in (
            (bunched.lengths, np.array(lengths, dtype=float)),
            (bunched.counts, np.array(counts, dtype=np.int64)),
        ):
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()


class TestBinning:
    def test_footnote_example(self):
        """Lengths 5996..6000 with counts 3,2,2,1,1 -> one group of 9 at
        the count-weighted mean (paper footnote 7 uses 5998)."""
        wld = WireLengthDistribution.from_groups(
            [(5996.0, 3), (5997.0, 2), (5998.0, 2), (5999.0, 1), (6000.0, 1)]
        )
        binned = bin_wld(wld, max_groups=1)
        assert binned.num_groups == 1
        assert binned.total_wires == 9
        mean = (5996 * 3 + 5997 * 2 + 5998 * 2 + 5999 + 6000) / 9
        assert binned.lengths[0] == pytest.approx(mean)

    def test_max_groups_respected(self):
        wld = WireLengthDistribution.from_groups(
            [(float(l), 1) for l in range(1, 201)]
        )
        binned = bin_wld(wld, max_groups=20)
        assert binned.num_groups <= 20

    def test_already_coarse_untouched(self):
        wld = WireLengthDistribution.from_groups([(10.0, 5), (1.0, 5)])
        assert bin_wld(wld, max_groups=10) is wld

    def test_relative_width_banding(self):
        wld = WireLengthDistribution.from_groups(
            [(100.0, 1), (99.0, 1), (50.0, 1), (49.5, 1)]
        )
        binned = bin_wld(wld, relative_width=0.05)
        assert binned.num_groups == 2

    def test_total_wirelength_preserved(self):
        wld = WireLengthDistribution.from_groups(
            [(float(l), l % 7 + 1) for l in range(1, 500)]
        )
        binned = bin_wld(wld, max_groups=30)
        assert binned.total_wires == wld.total_wires
        assert binned.total_length == pytest.approx(wld.total_length)

    def test_requires_exactly_one_knob(self):
        wld = WireLengthDistribution.from_groups([(1.0, 1)])
        with pytest.raises(WLDError):
            bin_wld(wld)
        with pytest.raises(WLDError):
            bin_wld(wld, max_groups=5, relative_width=0.1)

    def test_invalid_knob_values(self):
        wld = WireLengthDistribution.from_groups([(1.0, 1)])
        with pytest.raises(WLDError):
            bin_wld(wld, max_groups=0)
        with pytest.raises(WLDError):
            bin_wld(wld, relative_width=-0.5)

    @given(group_lists, st.integers(min_value=1, max_value=20))
    def test_binning_properties(self, groups, max_groups):
        wld = WireLengthDistribution.from_groups(groups)
        binned = bin_wld(wld, max_groups=max_groups)
        assert binned.num_groups <= max(max_groups, 1)
        assert binned.total_wires == wld.total_wires
        assert binned.total_length == pytest.approx(wld.total_length, rel=1e-9)
        # binned lengths stay inside the original range
        assert binned.max_length <= wld.max_length + 1e-9
        assert binned.min_length >= wld.min_length - 1e-9


class TestCoarsenPipeline:
    def test_bin_then_bunch(self):
        wld = WireLengthDistribution.from_groups(
            [(float(l), 97) for l in range(1, 301)]
        )
        coarse, bound = coarsen(wld, bunch_size=50, max_groups=40)
        assert coarse.total_wires == wld.total_wires
        assert bound <= 50
        assert max_bunch_count(coarse) == bound

    def test_noop(self):
        wld = WireLengthDistribution.from_groups([(2.0, 3)])
        coarse, bound = coarsen(wld)
        assert coarse is wld
        assert bound == 3
