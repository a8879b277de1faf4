"""Sequential-vs-parallel observability parity through the CLI.

The contract pinned here: a ``--trace`` run with ``--jobs 2`` reports
exactly the same deterministic counter totals as the same run with
``--jobs 1``, and both trace files pass Chrome trace-event validation.
Cache-warm accounting (``precompute.*`` / ``davis_cache.*``) and the
``parallel.*`` family are excluded by definition — per-worker cache
copies make those splits depend on point placement.
"""

import json

from repro import obs
from repro.cli import EXIT_OK, main
from repro.obs.aggregate import (
    NONDETERMINISTIC_PREFIXES,
    deterministic_counters,
)

_SWEEP = [
    "sweep", "R",
    "--gates", "50000",
    "--bunch-size", "2000",
    "--repeater-units", "64",
]


def _run_sweep(trace_path, jobs):
    obs.reset()
    # --pool-mode warm: the parity contract is about the *pool* path,
    # which "auto" would route around on a single-CPU CI runner.
    argv = _SWEEP + ["--jobs", str(jobs), "--trace", str(trace_path)]
    if jobs > 1:
        argv += ["--pool-mode", "warm"]
    code = main(argv)
    assert code == EXIT_OK
    return json.loads(trace_path.read_text())


class TestCounterParity:
    def test_parallel_matches_sequential(self, tmp_path):
        seq = _run_sweep(tmp_path / "seq.json", jobs=1)
        par = _run_sweep(tmp_path / "par.json", jobs=2)

        seq_counters = deterministic_counters(seq["metrics"])
        par_counters = deterministic_counters(par["metrics"])
        # The run did real work and the comparison is not vacuous.
        assert seq_counters["solver.dp.solves"] > 0
        assert seq_counters["runner.points_completed"] > 0
        assert par_counters == seq_counters

    def test_trace_files_validate(self, tmp_path):
        from repro.obs.trace import validate_trace

        for jobs in (1, 2):
            payload = _run_sweep(tmp_path / f"j{jobs}.json", jobs=jobs)
            assert validate_trace(payload) == []
            assert payload["traceEvents"], "trace recorded no spans"
            names = {e["name"] for e in payload["traceEvents"]}
            assert "run_batch" in names
            assert "solve_rank_dp" in names
            if jobs == 2:
                # Worker events merged back carry worker pids.
                pids = {e["pid"] for e in payload["traceEvents"]}
                assert len(pids) > 1

    def test_parallel_only_metrics_are_flagged_nondeterministic(self, tmp_path):
        par = _run_sweep(tmp_path / "par.json", jobs=2)
        gauges = par["metrics"]["gauges"]
        assert "parallel.worker_utilization" in gauges
        assert 0.0 < gauges["parallel.worker_utilization"] <= 1.0
        assert any(
            name.startswith("parallel.")
            for name in NONDETERMINISTIC_PREFIXES
        )


class TestAggregateHelpers:
    def test_deterministic_counters_filters_prefixes(self):
        snap = {
            "counters": {
                "solver.dp.rows": 10,
                "precompute.tables.hits": 3,
                "davis_cache.misses": 1,
                "parallel.queue_wait_s": 2,
                "runner.attempts": 4,
            }
        }
        assert deterministic_counters(snap) == {
            "solver.dp.rows": 10,
            "runner.attempts": 4,
        }

    def test_begin_end_point_ships_delta_only(self):
        from repro.obs import aggregate

        obs.enable()
        obs.inc("stale.counter", 99)
        started = aggregate.begin_point()
        obs.inc("fresh.counter", 2)
        payload = aggregate.end_point(started)
        obs.disable()
        assert payload["metrics"]["counters"] == {"fresh.counter": 2}
        assert payload["ended"] >= payload["started"]
        assert aggregate.busy_seconds(payload) >= 0.0
        assert aggregate.busy_seconds(None) == 0.0

    def test_merge_point_records_queue_wait(self):
        from repro.obs import aggregate

        obs.enable()
        payload = {
            "metrics": {"counters": {"c": 1}},
            "events": [],
            "started": 10.0,
            "ended": 11.0,
        }
        aggregate.merge_point(payload, submitted=9.5)
        obs.disable()
        snap = obs.snapshot()
        assert snap["counters"] == {"c": 1}
        timer = snap["timers"]["parallel.queue_wait_s"]
        assert timer["count"] == 1
        assert abs(timer["total_s"] - 0.5) < 1e-9
