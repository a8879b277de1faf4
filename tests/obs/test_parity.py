"""Sequential-vs-parallel observability parity through the CLI.

The contract pinned here: a ``--trace`` run with ``--jobs 2`` reports
exactly the same deterministic counter totals as the same run with
``--jobs 1``, and both trace files pass Chrome trace-event validation.
Cache-warm accounting (``precompute.*`` / ``davis_cache.*``) and the
``parallel.*`` family are excluded by definition — per-worker cache
copies make those splits depend on point placement.  Every batch
command (sweep, corners, exhaustive optimize) also prints the same
output and writes the same checkpoint, wall-clock fields aside.
"""

import json
import re

import pytest

from repro import obs
from repro.cli import EXIT_OK, main
from repro.obs.aggregate import (
    NONDETERMINISTIC_PREFIXES,
    deterministic_counters,
)

_SIZE = ["--gates", "50000", "--bunch-size", "2000", "--repeater-units", "64"]

_SWEEP = ["sweep", "R", *_SIZE]

#: One command per rank-batch caller; the optimize space (8 candidates)
#: stays under --exhaustive-limit, so it takes the checkpointed path.
_BATCH_COMMANDS = {
    "sweep": _SWEEP,
    "corners": ["corners", *_SIZE],
    "optimize": [
        "optimize", *_SIZE,
        "--k-classes", "3.9,2.8", "--m-classes", "2.0", "--max-layers", "8",
    ],
}

#: Checkpoint fields that hold wall-clock time (or a digest over it).
_TIMING_FIELDS = ("wall_time_s", "runtime_seconds", "integrity")


def _run(argv, trace_path, jobs):
    obs.reset()
    # --pool-mode warm: the parity contract is about the *pool* path,
    # which "auto" would route around on a single-CPU CI runner.
    argv = argv + ["--jobs", str(jobs), "--trace", str(trace_path)]
    if jobs > 1:
        argv += ["--pool-mode", "warm"]
    code = main(argv)
    assert code == EXIT_OK
    return json.loads(trace_path.read_text())


def _run_sweep(trace_path, jobs):
    return _run(_SWEEP, trace_path, jobs)


def _without_timing(obj):
    if isinstance(obj, dict):
        return {
            k: _without_timing(v)
            for k, v in obj.items()
            if k not in _TIMING_FIELDS
        }
    if isinstance(obj, list):
        return [_without_timing(item) for item in obj]
    return obj


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

    @pytest.mark.parametrize("command", sorted(_BATCH_COMMANDS))
    def test_pool_matches_sequential_output_and_checkpoint(
        self, tmp_path, capsys, command
    ):
        runs = {}
        for jobs in (1, 2):
            checkpoint = tmp_path / f"ck{jobs}.json"
            argv = _BATCH_COMMANDS[command] + ["--checkpoint", str(checkpoint)]
            trace = _run(argv, tmp_path / f"t{jobs}.json", jobs)
            payload = json.loads(checkpoint.read_text())
            runs[jobs] = (
                # optimize prints the best solve's runtime ("8.6 ms").
                re.sub(r"[\d.]+ ms\b", "- ms", capsys.readouterr().out),
                deterministic_counters(trace["metrics"]),
                [r["status"] for r in payload["journal"]["records"]],
                json.dumps(_without_timing(payload)).encode(),
            )
        out, counters, statuses, checkpoint_bytes = runs[1]
        assert statuses and set(statuses) == {"completed"}
        assert counters["runner.points_completed"] == len(statuses)
        assert runs[2] == runs[1]

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
