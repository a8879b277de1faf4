"""Precompute cache tests: correctness of reuse, LRU bounds, counters.

The cache must be an invisible optimization — cached results equal
fresh ones — and its observables (hit/miss counters, entry counts,
Davis-cache configuration) must report what actually happened.
"""

import pickle

import numpy as np
import pytest

from repro.core.precompute import PrecomputeCache, fingerprint
from repro.core.rank import compute_rank
from repro.core.scenarios import (
    baseline_problem,
    configure_davis_cache,
    davis_cache_info,
)

GATES = 50_000
OPTIONS = dict(bunch_size=2_000, repeater_units=64)


@pytest.fixture
def problem():
    return baseline_problem("130nm", GATES)


class TestFingerprint:
    def test_equal_values_share_fingerprint(self, problem):
        other = baseline_problem("130nm", GATES)
        assert fingerprint(problem) == fingerprint(other)

    def test_different_values_differ(self, problem):
        other = problem.with_clock_frequency(problem.clock_frequency * 2)
        assert fingerprint(problem) != fingerprint(other)

    def test_numpy_payloads_fingerprint_by_value(self):
        a = np.arange(10, dtype=np.float64)
        assert fingerprint(a) == fingerprint(a.copy())


class TestCachedResults:
    def test_cached_tables_identical_to_fresh(self, problem):
        cache = PrecomputeCache()
        fresh_tables, fresh_bound = problem.tables(bunch_size=2_000)
        cached_tables, cached_bound = cache.tables(problem, bunch_size=2_000)
        again_tables, again_bound = cache.tables(problem, bunch_size=2_000)
        assert cached_bound == fresh_bound == again_bound
        assert again_tables is cached_tables  # the hit returns the entry
        np.testing.assert_array_equal(
            cached_tables.lengths_m, fresh_tables.lengths_m
        )
        np.testing.assert_array_equal(
            cached_tables.counts, fresh_tables.counts
        )

    def test_compute_rank_unchanged_by_cache(self, problem):
        cache = PrecomputeCache()
        plain = compute_rank(problem, **OPTIONS)
        first = compute_rank(problem, cache=cache, **OPTIONS)
        second = compute_rank(problem, cache=cache, **OPTIONS)
        assert plain.rank == first.rank == second.rank
        assert plain.normalized == first.normalized == second.normalized
        hits = cache.stats()["hits"]
        assert hits["tables"] == 1  # second call reused the tables

    def test_wld_key_shared_across_clock_variants(self, problem):
        cache = PrecomputeCache()
        cache.coarsened(problem, bunch_size=2_000)
        for scale in (1.0, 1.5, 2.0):
            variant = problem.with_clock_frequency(
                problem.clock_frequency * scale
            )
            compute_rank(variant, cache=cache, **OPTIONS)
        stats = cache.stats()
        # One coarsening miss (the warm); every variant hit it.
        assert stats["misses"]["coarsened"] == 1
        assert stats["hits"]["coarsened"] == 3
        # Tables differ per variant: three misses, no hits.
        assert stats["misses"]["tables"] == 3


class TestLRU:
    def test_eviction_respects_max_entries(self, problem):
        cache = PrecomputeCache(max_entries=2)
        for bunch in (1_000, 2_000, 4_000):
            cache.coarsened(problem, bunch_size=bunch)
        stats = cache.stats()
        assert stats["entries"]["current"] == 2
        # Oldest entry evicted: re-requesting it misses again.
        cache.coarsened(problem, bunch_size=1_000)
        assert cache.stats()["misses"]["coarsened"] == 4

    def test_zero_entries_disables_storage(self, problem):
        cache = PrecomputeCache(max_entries=0)
        cache.coarsened(problem, bunch_size=2_000)
        cache.coarsened(problem, bunch_size=2_000)
        stats = cache.stats()
        assert stats["entries"]["current"] == 0
        assert stats["hits"]["coarsened"] == 0
        assert stats["misses"]["coarsened"] == 2

    def test_negative_entries_rejected(self):
        with pytest.raises(ValueError, match="max_entries"):
            PrecomputeCache(max_entries=-1)

    def test_clear_resets_everything(self, problem):
        cache = PrecomputeCache()
        cache.coarsened(problem, bunch_size=2_000)
        cache.coarsened(problem, bunch_size=2_000)
        cache.clear()
        stats = cache.stats()
        assert stats["entries"]["current"] == 0
        assert stats["hits"]["coarsened"] == 0
        assert stats["misses"]["coarsened"] == 0


class TestPicklability:
    def test_warm_cache_round_trips(self, problem):
        cache = PrecomputeCache()
        assert not hasattr(cache, "warm")  # warming is a plain coarsened() call
        cache.coarsened(problem, bunch_size=2_000)
        clone = pickle.loads(pickle.dumps(cache))
        clone.coarsened(problem, bunch_size=2_000)
        assert clone.stats()["hits"]["coarsened"] == 1


class TestDavisCacheConfig:
    def test_configure_resets_counters(self):
        configure_davis_cache(8)
        try:
            info = davis_cache_info()
            assert info.hits == 0 and info.misses == 0
            assert info.maxsize == 8
            baseline_problem("130nm", GATES)
            baseline_problem("130nm", GATES)
            info = davis_cache_info()
            assert info.misses == 1
            assert info.hits == 1
        finally:
            configure_davis_cache(16)

    def test_zero_disables_caching(self):
        configure_davis_cache(0)
        try:
            baseline_problem("130nm", GATES)
            baseline_problem("130nm", GATES)
            info = davis_cache_info()
            assert info.hits == 0
            assert info.misses == 2
        finally:
            configure_davis_cache(16)
