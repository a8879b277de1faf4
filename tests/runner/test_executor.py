"""Fault-injection tests for the batch executor.

The evaluate callables here raise on chosen points / attempts so every
guarantee — isolation, retry accounting, journal contents, strict
abort, checkpoint/resume identity — is asserted directly.
"""

import pytest

from repro.errors import RankComputationError, RunnerError
from repro.runner import (
    BatchOutcome,
    PointSpec,
    RetryPolicy,
    run_batch,
)
from repro.runner.checkpoint import load_checkpoint
from repro.runner.executor import execute_point
from repro.runner.journal import STATUS_CACHED, STATUS_COMPLETED, STATUS_FAILED


def specs(n=5):
    return [
        PointSpec(key=f"p[{i}]", value=float(i), label=f"point {i}")
        for i in range(n)
    ]


def make_evaluate(fail_keys=(), fail_first_attempts=0, log=None):
    """Evaluate callable that fails on chosen points.

    ``fail_keys``: points that fail on *every* attempt.
    ``fail_first_attempts``: every point fails its first N attempts,
    then succeeds (exercises retry success paths).
    """
    attempts_seen = {}

    def evaluate(point, attempt):
        if log is not None:
            log.append((point.key, attempt.index))
        attempts_seen[point.key] = attempts_seen.get(point.key, 0) + 1
        if point.key in fail_keys:
            raise RankComputationError(f"injected failure at {point.key}")
        if attempt.index < fail_first_attempts:
            raise RankComputationError(f"transient failure at {point.key}")
        return {"value": point.value * 10}

    evaluate.attempts_seen = attempts_seen
    return evaluate


class TestIsolation:
    def test_keep_going_completes_all_other_points(self):
        outcome = run_batch(
            "demo",
            specs(5),
            make_evaluate(fail_keys={"p[2]"}),
            keep_going=True,
        )
        assert isinstance(outcome, BatchOutcome)
        assert outcome.partial
        assert set(outcome.results) == {"p[0]", "p[1]", "p[3]", "p[4]"}
        (failure,) = outcome.failures
        assert failure.key == "p[2]"
        assert failure.error_type == "RankComputationError"
        assert "injected failure" in failure.error_message

    def test_strict_mode_aborts_on_first_failure(self):
        log = []
        with pytest.raises(RunnerError, match="p\\[2\\]"):
            run_batch(
                "demo",
                specs(5),
                make_evaluate(fail_keys={"p[2]"}, log=log),
                keep_going=False,
            )
        # Points after the failure were never attempted.
        assert [key for key, _ in log] == ["p[0]", "p[1]", "p[2]"]

    def test_non_retryable_exception_propagates(self):
        def explode(point, attempt):
            raise ValueError("programming error")

        with pytest.raises(ValueError):
            run_batch("demo", specs(2), explode, keep_going=True)

    def test_total_failure(self):
        outcome = run_batch(
            "demo",
            specs(2),
            make_evaluate(fail_keys={"p[0]", "p[1]"}),
            keep_going=True,
        )
        assert len(outcome.failures) == 2
        assert not outcome.results

    def test_duplicate_keys_rejected(self):
        points = [PointSpec(key="same", value=1), PointSpec(key="same", value=2)]
        with pytest.raises(RunnerError, match="same"):
            run_batch("demo", points, make_evaluate())


class TestRetries:
    def test_retry_until_success_records_all_attempts(self):
        evaluate = make_evaluate(fail_first_attempts=2)
        outcome = run_batch(
            "demo",
            specs(2),
            evaluate,
            policy=RetryPolicy(max_attempts=3),
            keep_going=True,
        )
        assert outcome.ok
        assert evaluate.attempts_seen == {"p[0]": 3, "p[1]": 3}
        # 2 failed + 1 successful attempt per point -> 2 retries each.
        assert outcome.journal.retries == 4
        for record in outcome.journal.records:
            assert record.status == STATUS_COMPLETED
            assert len(record.attempts) == 3
            assert not record.attempts[0].ok
            assert record.attempts[2].ok

    def test_exhausted_attempts_counted_exactly(self):
        evaluate = make_evaluate(fail_keys={"p[0]"})
        outcome = run_batch(
            "demo",
            specs(1),
            evaluate,
            policy=RetryPolicy(max_attempts=3),
            keep_going=True,
        )
        assert evaluate.attempts_seen == {"p[0]": 3}
        (failure,) = outcome.failures
        assert len(failure.attempts) == 3

    def test_degradation_ladder_reaches_evaluate(self):
        seen = []

        def evaluate(point, attempt):
            seen.append(dict(attempt.degradation))
            if attempt.index < 2:
                raise RankComputationError("transient")
            return 1

        run_batch(
            "demo",
            specs(1),
            evaluate,
            policy=RetryPolicy(max_attempts=3),
        )
        assert seen == [{}, {"bunch_scale": 2.0}, {"bunch_scale": 4.0}]

    def test_execute_point_never_raises_on_exhaustion(self):
        outcome = execute_point(
            PointSpec(key="p", value=1),
            make_evaluate(fail_keys={"p"}),
            RetryPolicy(max_attempts=2),
        )
        assert not outcome.ok
        assert outcome.record.status == STATUS_FAILED


class TestCheckpointResume:
    def test_checkpoint_written_after_every_point(self, tmp_path):
        path = tmp_path / "ck.json"
        seen = []

        def evaluate(point, attempt):
            if path.exists():
                seen.append(len(load_checkpoint(path).points))
            return point.value

        run_batch("demo", specs(3), evaluate, checkpoint_path=path)
        # Before point i runs, i points are already checkpointed.
        assert seen == [0, 1, 2]
        assert len(load_checkpoint(path).points) == 3

    def test_strict_failure_still_checkpoints_completed_points(self, tmp_path):
        path = tmp_path / "ck.json"
        with pytest.raises(RunnerError, match="resume"):
            run_batch(
                "demo",
                specs(4),
                make_evaluate(fail_keys={"p[2]"}),
                checkpoint_path=path,
            )
        assert set(load_checkpoint(path).points) == {"p[0]", "p[1]"}

    def test_resume_recomputes_only_missing_points(self, tmp_path):
        path = tmp_path / "ck.json"
        with pytest.raises(RunnerError):
            run_batch(
                "demo",
                specs(4),
                make_evaluate(fail_keys={"p[2]"}),
                checkpoint_path=path,
            )
        evaluate = make_evaluate()  # failure "fixed"
        outcome = run_batch(
            "demo",
            specs(4),
            evaluate,
            checkpoint_path=path,
            resume=True,
        )
        assert outcome.ok
        # Only the failed point and the never-reached one were recomputed.
        assert set(evaluate.attempts_seen) == {"p[2]", "p[3]"}
        cached = {r.key for r in outcome.journal.records
                  if r.status == STATUS_CACHED}
        assert cached == {"p[0]", "p[1]"}

    def test_resumed_results_equal_uninterrupted_run(self, tmp_path):
        path = tmp_path / "ck.json"
        uninterrupted = run_batch("demo", specs(4), make_evaluate())
        with pytest.raises(RunnerError):
            run_batch(
                "demo",
                specs(4),
                make_evaluate(fail_keys={"p[1]"}),
                checkpoint_path=path,
            )
        resumed = run_batch(
            "demo",
            specs(4),
            make_evaluate(),
            checkpoint_path=path,
            resume=True,
        )
        assert resumed.results == uninterrupted.results

    def test_resume_requires_checkpoint_path(self):
        with pytest.raises(RunnerError):
            run_batch("demo", specs(1), make_evaluate(), resume=True)

    def test_initial_checkpoint_written_before_first_point(self, tmp_path):
        path = tmp_path / "ck.json"

        def die_immediately(point, attempt):
            raise RankComputationError("boom")

        with pytest.raises(RunnerError):
            run_batch("demo", specs(2), die_immediately, checkpoint_path=path)
        # A kill before the first completed point still leaves a
        # resumable (empty) checkpoint.
        assert load_checkpoint(path, expect_run="demo").points == {}

    def test_serialize_deserialize_round_trip(self, tmp_path):
        path = tmp_path / "ck.json"
        run_batch(
            "demo",
            specs(2),
            make_evaluate(),
            checkpoint_path=path,
            serialize=lambda result: {"wrapped": result},
        )
        outcome = run_batch(
            "demo",
            specs(2),
            make_evaluate(),
            checkpoint_path=path,
            resume=True,
            serialize=lambda result: {"wrapped": result},
            deserialize=lambda payload: payload["wrapped"],
        )
        assert outcome.results["p[0]"] == {"value": 0.0}
