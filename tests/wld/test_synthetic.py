"""Tests for synthetic WLD generators."""

from repro.wld.synthetic import wld_from_pairs


class TestFromPairs:
    def test_round_trip(self):
        wld = wld_from_pairs([(3.0, 2), (9.0, 1)])
        assert list(wld) == [(9.0, 1), (3.0, 2)]
