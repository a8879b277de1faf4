"""Tests for InterconnectArchitecture."""

from collections import Counter

import pytest

from repro.arch.stack import InterconnectArchitecture
from repro.errors import ConfigurationError


class TestStack:
    def test_len_and_num_pairs(self, arch130):
        assert len(arch130) == arch130.num_pairs == 4

    def test_ordering_top_is_global(self, arch130):
        assert arch130.top.tier == "global"
        assert arch130[-1].tier == "local"

    def test_iteration_order(self, arch130):
        tiers = [p.tier for p in arch130]
        assert tiers == ["global", "semi_global", "semi_global", "local"]

    def test_indexing(self, arch130):
        assert arch130[0] is arch130.top
        assert arch130[-1] is arch130.pairs[-1]

    def test_pair_range_check(self, arch130):
        with pytest.raises(ConfigurationError):
            arch130.pair(99)
        with pytest.raises(ConfigurationError):
            arch130.pair(-1)

    def test_tier_counts(self, arch130):
        assert Counter(pair.tier for pair in arch130) == {
            "global": 1,
            "semi_global": 2,
            "local": 1,
        }

    def test_describe_mentions_all_pairs(self, arch130):
        text = arch130.describe()
        for pair in arch130:
            assert pair.name in text

    def test_empty_stack_rejected(self):
        with pytest.raises(ConfigurationError):
            InterconnectArchitecture(name="empty", pairs=())

    def test_global_pair_has_lowest_resistance(self, arch130):
        """Fat top-tier wires must beat the local tier on r-bar."""
        assert arch130.top.rc.resistance < arch130[-1].rc.resistance
