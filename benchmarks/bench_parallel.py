"""Parallel batch throughput and shared-precompute reuse.

The tentpole claim: dispatching independent batch points to worker
processes raises points/sec without changing a single byte of persisted
output, and the precompute cache removes the redundant coarse-WLD work
every point used to repeat.  These benchmarks measure both halves;
``bench/run.py`` is the machine-readable benchmark.

Speedup scales with physical cores; on a single-core runner the
parallel path is expected to tie or lose slightly (the identity check
is what must hold everywhere).
"""

import os
import time

from repro.analysis.sweep import sweep_repeater_fraction
from repro.api import PrecomputeCache, baseline_problem
from repro.reporting.text import format_table

from .conftest import BENCH_GATES, BENCH_OPTIONS, run_once

JOBS = min(4, os.cpu_count() or 1)


def test_sweep_points_per_second(benchmark):
    """Points/sec of a Table 4 sweep, sequential vs parallel."""
    problem = baseline_problem("130nm", BENCH_GATES)

    def run():
        rows = []
        for jobs in (1, JOBS):
            start = time.perf_counter()
            sweep = sweep_repeater_fraction(problem, jobs=jobs, **BENCH_OPTIONS)
            elapsed = time.perf_counter() - start
            rows.append(
                (
                    jobs,
                    len(sweep.points),
                    f"{len(sweep.points) / elapsed:.2f} pts/s",
                    f"{elapsed * 1e3:.0f} ms",
                )
            )
        return rows

    rows = run_once(benchmark, run)
    print()
    print(
        format_table(
            ("jobs", "points", "throughput", "wall"),
            rows,
            title=f"E18: sweep throughput ({os.cpu_count()} CPUs)",
        )
    )


def test_precompute_cache_reuse(benchmark):
    """Shared-precompute hit rate across one sweep's points."""
    problem = baseline_problem("130nm", BENCH_GATES)

    def run():
        rows = []
        caches = (
            ("off", PrecomputeCache(max_entries=0)),
            ("on", PrecomputeCache()),
        )
        for label, cache in caches:
            start = time.perf_counter()
            sweep = sweep_repeater_fraction(
                problem, jobs=1, cache=cache, **BENCH_OPTIONS
            )
            elapsed = time.perf_counter() - start
            stats = cache.stats()
            rows.append(
                (
                    label,
                    len(sweep.points),
                    stats["hits"]["coarsened"],
                    stats["hits"]["tables"],
                    f"{elapsed * 1e3:.0f} ms",
                )
            )
        return rows

    rows = run_once(benchmark, run)
    print()
    print(
        format_table(
            ("cache", "points", "coarse hits", "table hits", "wall"),
            rows,
            title="E18b: precompute reuse across sweep points",
        )
    )
    # The warmed cache must serve every point's coarse WLD after the miss.
    assert rows[1][2] >= rows[1][1] - 1
