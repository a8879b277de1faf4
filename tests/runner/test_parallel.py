"""Parallel backend tests: identity with sequential, fault parity.

The contract under test is absolute: ``jobs=N`` must produce the same
results, journal statuses, attempt counts and final checkpoint as
``jobs=1`` — modulo wall-clock fields — including when points fail.
Evaluators here are module-level classes because the parallel path
pickles them to worker processes.
"""

from dataclasses import dataclass, field
from typing import FrozenSet

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import RankComputationError, RunnerError
from repro.runner import (
    POOL_MODES,
    PointSpec,
    RetryPolicy,
    resolve_chunk_size,
    resolve_jobs,
    run_batch,
    should_use_pool,
    usable_cpus,
)
from repro.runner.checkpoint import load_checkpoint
from repro.runner.journal import STATUS_CACHED, STATUS_COMPLETED, STATUS_FAILED


def specs(n=6):
    return [
        PointSpec(key=f"p[{i}]", value=float(i), label=f"point {i}")
        for i in range(n)
    ]


@dataclass(frozen=True)
class PicklableEvaluate:
    """Deterministic evaluator with injectable failures.

    ``fail_keys`` fail every attempt; ``flaky_keys`` fail attempt 0
    only (succeed under a retry policy with ``max_attempts >= 2``).
    """

    fail_keys: FrozenSet[str] = frozenset()
    flaky_keys: FrozenSet[str] = frozenset()

    def __call__(self, point, attempt):
        if point.key in self.fail_keys:
            raise RankComputationError(f"injected failure at {point.key}")
        if point.key in self.flaky_keys and attempt.index == 0:
            raise RankComputationError(f"transient failure at {point.key}")
        return {"value": point.value * 10, "attempt": attempt.index}


def _attempts_fingerprint(attempts):
    return tuple(
        (a.index, a.error_type, a.error_message, dict(a.degradation))
        for a in attempts
    )


def outcome_fingerprint(outcome):
    """Everything the contract promises, minus wall-clock noise."""
    return {
        "results": dict(outcome.results),
        "failures": [
            (f.key, f.error_type, _attempts_fingerprint(f.attempts))
            for f in outcome.failures
        ],
        "journal": [
            (r.key, r.status, _attempts_fingerprint(r.attempts))
            for r in outcome.journal.records
        ],
    }


def _strip_timing(obj):
    if isinstance(obj, dict):
        return {
            k: _strip_timing(v)
            for k, v in obj.items()
            if k not in ("wall_time_s", "runtime_seconds")
        }
    if isinstance(obj, list):
        return [_strip_timing(item) for item in obj]
    return obj


def checkpoint_fingerprint(path):
    checkpoint = load_checkpoint(path)
    return (
        {key: _strip_timing(rec) for key, rec in checkpoint.points.items()},
        list(checkpoint.points),
    )


class TestResolveJobs:
    def test_none_and_one_are_sequential(self):
        assert resolve_jobs(None) == 1
        assert resolve_jobs(1) == 1

    def test_zero_means_cpu_count(self):
        assert resolve_jobs(0) >= 1

    def test_negative_rejected(self):
        with pytest.raises(RunnerError, match="jobs"):
            resolve_jobs(-2)


class TestIdentity:
    def test_results_and_journal_match_sequential(self):
        runs = [
            run_batch("demo", specs(), PicklableEvaluate(), jobs=jobs)
            for jobs in (1, 3)
        ]
        assert outcome_fingerprint(runs[0]) == outcome_fingerprint(runs[1])

    def test_checkpoints_byte_identical(self, tmp_path):
        fingerprints = []
        for jobs in (1, 3):
            path = tmp_path / f"jobs{jobs}.json"
            run_batch(
                "demo",
                specs(),
                PicklableEvaluate(),
                checkpoint_path=path,
                jobs=jobs,
            )
            fingerprints.append(checkpoint_fingerprint(path))
        assert fingerprints[0] == fingerprints[1]
        # Keys are committed in batch order, not completion order.
        assert fingerprints[0][1] == [s.key for s in specs()]

    def test_failures_with_keep_going_match_sequential(self):
        evaluate = PicklableEvaluate(
            fail_keys=frozenset({"p[1]", "p[4]"}),
            flaky_keys=frozenset({"p[2]"}),
        )
        policy = RetryPolicy(max_attempts=2)
        runs = [
            run_batch(
                "demo",
                specs(),
                evaluate,
                policy=policy,
                keep_going=True,
                jobs=jobs,
            )
            for jobs in (1, 4)
        ]
        assert outcome_fingerprint(runs[0]) == outcome_fingerprint(runs[1])
        statuses = {
            r.key: r.status for r in runs[1].journal.records
        }
        assert statuses["p[1]"] == STATUS_FAILED
        assert statuses["p[2]"] == STATUS_COMPLETED
        # Flaky point retried in-worker: both attempts recorded.
        by_key = {r.key: r for r in runs[1].journal.records}
        assert len(by_key["p[2]"].attempts) == 2

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=7),
        fail_mask=st.integers(min_value=0, max_value=127),
        jobs=st.sampled_from([2, 3, 4]),
    )
    def test_property_parallel_equals_sequential(self, n, fail_mask, jobs):
        """For any failure pattern, jobs=N is indistinguishable from jobs=1."""
        fail_keys = frozenset(
            f"p[{i}]" for i in range(n) if fail_mask & (1 << i)
        )
        evaluate = PicklableEvaluate(fail_keys=fail_keys)
        runs = [
            run_batch(
                "demo", specs(n), evaluate, keep_going=True, jobs=run_jobs
            )
            for run_jobs in (1, jobs)
        ]
        assert outcome_fingerprint(runs[0]) == outcome_fingerprint(runs[1])


class TestPoolKnobs:
    def test_pool_modes_exported(self):
        assert set(POOL_MODES) == {"auto", "warm", "sequential"}

    def test_sequential_mode_never_pools(self):
        assert not should_use_pool("sequential", jobs=8, n_points=100)

    def test_pool_needs_work_to_share(self):
        assert not should_use_pool("warm", jobs=1, n_points=100)
        assert not should_use_pool("warm", jobs=4, n_points=1)
        assert should_use_pool("warm", jobs=2, n_points=2)

    def test_auto_requires_multiple_cpus(self):
        expected = usable_cpus() >= 2
        assert should_use_pool("auto", jobs=4, n_points=100) is expected

    def test_invalid_pool_mode_rejected(self):
        with pytest.raises(RunnerError, match="pool_mode"):
            run_batch(
                "demo",
                specs(2),
                PicklableEvaluate(),
                jobs=2,
                pool_mode="tepid",
            )

    def test_auto_chunk_size_scales_with_batch(self):
        # ~4 waves per worker, never 0, capped for cheap resubmission.
        assert resolve_chunk_size(n_points=2, workers=4) == 1
        assert resolve_chunk_size(n_points=80, workers=2) == 10
        assert resolve_chunk_size(n_points=100_000, workers=2) == 32

    def test_auto_fallback_runs_sequential_with_identical_results(self):
        # pool_mode="sequential" with jobs>1 exercises the fallback
        # dispatch deterministically on any machine: the evaluate is
        # still pickled (portability contract) but no pool is spawned.
        runs = [
            run_batch(
                "demo",
                specs(),
                PicklableEvaluate(),
                jobs=jobs,
                pool_mode=mode,
            )
            for jobs, mode in ((1, "auto"), (4, "sequential"))
        ]
        assert outcome_fingerprint(runs[0]) == outcome_fingerprint(runs[1])

    def test_fallback_still_fails_fast_on_unpicklable_evaluate(self):
        with pytest.raises(RunnerError, match="pickle"):
            run_batch(
                "demo",
                specs(),
                lambda point, attempt: None,
                jobs=2,
                pool_mode="sequential",
            )


def batch_for_chunk(chunk, jobs):
    """The longest batch that the auto rule splits into ``chunk``-point
    chunks over ``jobs`` workers (``None``: the default batch)."""
    if chunk is None:
        return len(specs())
    n = chunk * jobs * 4
    assert resolve_chunk_size(n, jobs) == chunk
    return n


class TestWarmPoolIdentity:
    """The warm pool against the sequential oracle.

    ``pool_mode="warm"`` forces the real pool even on a single-CPU
    runner, so these tests exercise payload loading, chunked dispatch
    and result streaming rather than the auto fallback.  Chunk sizes
    follow from batch length and ``jobs`` under the auto rule.
    """

    @settings(max_examples=20, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=24),
        fail_mask=st.integers(min_value=0, max_value=2**24 - 1),
        jobs=st.sampled_from([2, 4]),
    )
    def test_property_warm_pool_equals_sequential(self, n, fail_mask, jobs):
        """For any failure pattern × jobs × batch length (chunks of 1
        to 3 points), the warm pool is indistinguishable from jobs=1."""
        fail_keys = frozenset(
            f"p[{i}]" for i in range(n) if fail_mask & (1 << i)
        )
        evaluate = PicklableEvaluate(fail_keys=fail_keys)
        seq = run_batch("demo", specs(n), evaluate, keep_going=True, jobs=1)
        warm = run_batch(
            "demo",
            specs(n),
            evaluate,
            keep_going=True,
            jobs=jobs,
            pool_mode="warm",
        )
        assert outcome_fingerprint(seq) == outcome_fingerprint(warm)

    @pytest.mark.parametrize("chunk", [1, 3, None])
    @pytest.mark.parametrize("jobs", [2, 4])
    def test_checkpoints_byte_identical_to_sequential(
        self, tmp_path, jobs, chunk
    ):
        points = specs(batch_for_chunk(chunk, jobs))
        seq_path = tmp_path / "seq.json"
        run_batch(
            "demo", points, PicklableEvaluate(), checkpoint_path=seq_path
        )
        warm_path = tmp_path / f"warm-{jobs}-{chunk}.json"
        run_batch(
            "demo",
            points,
            PicklableEvaluate(),
            checkpoint_path=warm_path,
            jobs=jobs,
            pool_mode="warm",
        )
        assert checkpoint_fingerprint(seq_path) == checkpoint_fingerprint(
            warm_path
        )
        # Committed in batch order regardless of chunk completion order.
        assert checkpoint_fingerprint(warm_path)[1] == [
            s.key for s in points
        ]

    def test_retries_flaky_points_inside_warm_pool(self):
        evaluate = PicklableEvaluate(flaky_keys=frozenset({"p[1]", "p[3]"}))
        outcome = run_batch(
            "demo",
            specs(batch_for_chunk(3, jobs=2)),
            evaluate,
            policy=RetryPolicy(max_attempts=2),
            jobs=2,
            pool_mode="warm",
        )
        by_key = {r.key: r for r in outcome.journal.records}
        assert len(by_key["p[1]"].attempts) == 2
        assert by_key["p[1]"].status == STATUS_COMPLETED
        assert outcome.results["p[1]"] == {"value": 10.0, "attempt": 1}

    def test_warm_pool_resume_computes_only_missing_points(self, tmp_path):
        path = tmp_path / "resume.json"
        run_batch(
            "demo",
            specs(),
            PicklableEvaluate(fail_keys=frozenset({"p[4]"})),
            keep_going=True,
            checkpoint_path=path,
            jobs=2,
            pool_mode="warm",
        )
        outcome = run_batch(
            "demo",
            specs(),
            PicklableEvaluate(),
            checkpoint_path=path,
            resume=True,
            jobs=2,
            pool_mode="warm",
        )
        statuses = {r.key: r.status for r in outcome.journal.records}
        assert statuses["p[4]"] == STATUS_COMPLETED
        cached = [k for k, s in statuses.items() if s == STATUS_CACHED]
        assert len(cached) == len(specs()) - 1


class TestStrictParallel:
    def test_first_failure_in_batch_order_reported(self):
        evaluate = PicklableEvaluate(fail_keys=frozenset({"p[1]", "p[3]"}))
        with pytest.raises(RunnerError, match=r"point 'point 1' failed"):
            run_batch("demo", specs(), evaluate, jobs=3)

    def test_strict_checkpoint_keeps_completed_points(self, tmp_path):
        path = tmp_path / "strict.json"
        evaluate = PicklableEvaluate(fail_keys=frozenset({"p[2]"}))
        with pytest.raises(RunnerError):
            run_batch(
                "demo", specs(), evaluate, checkpoint_path=path, jobs=2
            )
        checkpoint = load_checkpoint(path)
        assert "p[2]" not in checkpoint.points
        assert set(checkpoint.points) <= {s.key for s in specs()}


class TestPicklability:
    def test_unpicklable_evaluate_fails_before_forking(self):
        with pytest.raises(RunnerError, match="pickle"):
            run_batch(
                "demo", specs(), lambda point, attempt: None, jobs=2
            )

    def test_unpicklable_evaluate_fails_fast_in_warm_mode(self):
        with pytest.raises(RunnerError, match="pickle"):
            run_batch(
                "demo",
                specs(),
                lambda point, attempt: None,
                jobs=2,
                pool_mode="warm",
            )

    def test_unpicklable_evaluate_fine_sequentially(self):
        outcome = run_batch(
            "demo", specs(2), lambda point, attempt: point.value, jobs=1
        )
        assert outcome.results == {"p[0]": 0.0, "p[1]": 1.0}


class TestParallelResume:
    def test_resume_computes_only_missing_points(self, tmp_path):
        path = tmp_path / "resume.json"
        evaluate = PicklableEvaluate(fail_keys=frozenset({"p[4]"}))
        run_batch(
            "demo",
            specs(),
            evaluate,
            keep_going=True,
            checkpoint_path=path,
            jobs=3,
        )
        outcome = run_batch(
            "demo",
            specs(),
            PicklableEvaluate(),
            checkpoint_path=path,
            resume=True,
            jobs=3,
        )
        statuses = {r.key: r.status for r in outcome.journal.records}
        assert statuses["p[4]"] == STATUS_COMPLETED
        cached = [k for k, s in statuses.items() if s == STATUS_CACHED]
        assert len(cached) == len(specs()) - 1
        assert outcome.results["p[4]"] == {"value": 40.0, "attempt": 0}


class TestAmortizedCheckpoints:
    def _count_commits(self, monkeypatch):
        import repro.runner.executor as executor

        calls = []
        real = executor.save_checkpoint

        def counting(checkpoint, path):
            calls.append(len(checkpoint.points))
            return real(checkpoint, path)

        monkeypatch.setattr(executor, "save_checkpoint", counting)
        return calls

    def test_checkpoint_every_batches_writes(self, tmp_path, monkeypatch):
        calls = self._count_commits(monkeypatch)
        run_batch(
            "demo",
            specs(6),
            PicklableEvaluate(),
            checkpoint_path=tmp_path / "c.json",
            checkpoint_every=3,
        )
        # identity write + one per 3 points + final commit
        assert calls == [0, 3, 6, 6]

    def test_final_commit_always_complete(self, tmp_path, monkeypatch):
        calls = self._count_commits(monkeypatch)
        path = tmp_path / "c.json"
        run_batch(
            "demo",
            specs(5),
            PicklableEvaluate(),
            checkpoint_path=path,
            checkpoint_every=1000,
        )
        assert calls == [0, 5]
        assert set(load_checkpoint(path).points) == {s.key for s in specs(5)}

    def test_final_commit_on_strict_failure(self, tmp_path, monkeypatch):
        calls = self._count_commits(monkeypatch)
        path = tmp_path / "c.json"
        with pytest.raises(RunnerError):
            run_batch(
                "demo",
                specs(5),
                PicklableEvaluate(fail_keys=frozenset({"p[3]"})),
                checkpoint_path=path,
                checkpoint_every=1000,
            )
        # Every completed point survives even though no periodic write fired.
        assert set(load_checkpoint(path).points) == {"p[0]", "p[1]", "p[2]"}

    def test_invalid_knobs_rejected(self, tmp_path):
        with pytest.raises(RunnerError, match="checkpoint_every"):
            run_batch(
                "demo", specs(2), PicklableEvaluate(), checkpoint_every=0
            )
        with pytest.raises(RunnerError, match="checkpoint_interval_s"):
            run_batch(
                "demo",
                specs(2),
                PicklableEvaluate(),
                checkpoint_interval_s=0.0,
            )
