"""Precompute cache tests: correctness of reuse, LRU bounds, counters.

The cache must be an invisible optimization — cached results equal
fresh ones — and its observables (hit/miss counters, entry counts,
Davis-cache hits and misses) must report what actually happened.
"""

import pickle

import numpy as np
import pytest

from repro import obs
from repro.analysis.sweep import sweep_repeater_fraction
from repro.core.precompute import PrecomputeCache, fingerprint
from repro.core.rank import compute_rank
from repro.core.scenarios import _cached_davis, baseline_problem

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


class TestSweepReuse:
    def test_warm_cache_serves_every_point_coarse_wld(self, problem):
        """A sweep warms the cache on its baseline (the one miss); every
        point then reuses that coarse WLD, since only the die varies."""
        cache = PrecomputeCache()
        sweep = sweep_repeater_fraction(
            problem, values=[0.2, 0.3, 0.4], jobs=1, cache=cache, **OPTIONS
        )
        stats = cache.stats()
        assert len(sweep.points) == 3
        assert stats["misses"]["coarsened"] == 1
        assert stats["hits"]["coarsened"] == len(sweep.points)


class TestPicklability:
    def test_warm_cache_round_trips(self, problem):
        cache = PrecomputeCache()
        assert not hasattr(cache, "warm")  # warming is a plain coarsened() call
        cache.coarsened(problem, bunch_size=2_000)
        clone = pickle.loads(pickle.dumps(cache))
        clone.coarsened(problem, bunch_size=2_000)
        assert clone.stats()["hits"]["coarsened"] == 1


class TestDavisCache:
    def test_fixed_capacity(self):
        assert _cached_davis.cache_info().maxsize == 16

    def test_lookups_publish_hits_and_misses(self):
        gates = 43_210  # no other test builds this WLD
        obs.reset()
        obs.enable()
        try:
            baseline_problem("130nm", gates)
            baseline_problem("130nm", gates)
            counters = obs.snapshot()["counters"]
        finally:
            obs.disable()
            obs.reset()
        assert counters["davis_cache.misses"] == 1
        assert counters["davis_cache.hits"] == 1
