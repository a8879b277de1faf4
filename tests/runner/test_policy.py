"""Tests for the retry policy and its deterministic degradation ladder."""

import dataclasses
import time

import pytest

from repro.errors import (
    ConfigurationError,
    DeadlineExceeded,
    RankComputationError,
    RunnerError,
)
from repro.runner import PointSpec, RetryPolicy, execute_point
from repro.runner.parallel import _task_budget
from repro.runner.policy import BUNCH_SCALE, HANG_GRACE, scaled_bunch_size

#: The knobs that became module constants (no caller set them).
FIXED = ("bunch_scale", "retry_on", "hang_grace")


class _FailOnce:
    """Raises a retryable error on the first attempt only."""

    def __call__(self, point, attempt):
        if attempt.index == 0:
            raise RankComputationError("transient")
        return attempt.index


class TestValidation:
    def test_defaults(self):
        policy = RetryPolicy()
        assert policy.max_attempts == 1
        assert policy.timeout_s is None

    def test_rejects_zero_attempts(self):
        with pytest.raises(RunnerError):
            RetryPolicy(max_attempts=0)

    def test_rejects_nonpositive_timeout(self):
        with pytest.raises(RunnerError):
            RetryPolicy(timeout_s=0.0)
        with pytest.raises(RunnerError):
            RetryPolicy(timeout_s=-1.0)

    def test_rejects_nonpositive_bunch_scale(self):
        for name in FIXED:
            with pytest.raises(TypeError, match=name):
                RetryPolicy(**{name: 0.0})


class TestDegradationLadder:
    def test_first_attempt_never_degrades(self):
        assert RetryPolicy(max_attempts=3).degradation(0) == {}

    def test_ladder_is_deterministic_and_geometric(self):
        assert BUNCH_SCALE == 2.0
        policy = RetryPolicy(max_attempts=4)
        assert policy.degradation(1) == {"bunch_scale": 2.0}
        assert policy.degradation(2) == {"bunch_scale": 4.0}
        assert policy.degradation(3) == {"bunch_scale": 8.0}
        # No randomness: repeated calls agree exactly.
        assert policy.degradation(2) == policy.degradation(2)

    def test_unit_scale_means_no_degradation(self):
        with pytest.raises(TypeError, match="bunch_scale"):
            RetryPolicy(max_attempts=3, bunch_scale=1.0)
        assert RetryPolicy(max_attempts=3).degradation(2) == {"bunch_scale": 4.0}


class TestScaledBunchSize:
    def test_none_stays_none(self):
        assert scaled_bunch_size(None, {"bunch_scale": 4.0}) is None

    def test_no_degradation_is_identity(self):
        assert scaled_bunch_size(5000, {}) == 5000

    def test_scales_and_floors_at_one(self):
        assert scaled_bunch_size(5000, {"bunch_scale": 2.0}) == 10000
        assert scaled_bunch_size(1, {"bunch_scale": 0.1}) == 1


class TestDeadline:
    def test_no_timeout_means_no_deadline(self):
        assert RetryPolicy().deadline() is None

    def test_deadline_is_now_plus_timeout(self):
        policy = RetryPolicy(timeout_s=10.0)
        assert policy.deadline(now=100.0) == pytest.approx(110.0)


class TestRetryability:
    def test_repro_errors_are_retryable_by_default(self):
        policy = RetryPolicy()
        assert policy.is_retryable(RankComputationError("x"))
        assert policy.is_retryable(DeadlineExceeded("x"))
        assert policy.is_retryable(ConfigurationError("x"))

    def test_programming_errors_are_not(self):
        policy = RetryPolicy()
        assert not policy.is_retryable(ValueError("x"))
        assert not policy.is_retryable(KeyError("x"))

    def test_custom_retry_on(self):
        with pytest.raises(TypeError, match="retry_on"):
            RetryPolicy(retry_on=(ValueError,))


class TestBackoff:
    """The retry backoff ladder is gone: retries start immediately."""

    REMOVED = ("backoff_s", "backoff_factor", "backoff_max_s", "jitter", "seed")

    def test_disabled_by_default(self):
        assert [f.name for f in dataclasses.fields(RetryPolicy)] == [
            "max_attempts", "timeout_s",
        ]
        policy = RetryPolicy(max_attempts=3)
        for method in ("_backoff_base", "backoff_delay", "backoff_budget"):
            assert not hasattr(policy, method)

    def test_attempt_zero_never_waits(self, monkeypatch):
        def no_sleep(seconds):
            raise AssertionError(f"retry slept {seconds!r} s")

        monkeypatch.setattr(time, "sleep", no_sleep)
        outcome = execute_point(
            PointSpec(key="p", value=0.0), _FailOnce(), RetryPolicy(max_attempts=2)
        )
        assert outcome.ok
        assert [a.index for a in outcome.record.attempts] == [0, 1]

    def test_exponential_progression_with_ceiling(self):
        for name, value in (("backoff_s", 1.0), ("backoff_factor", 2.0)):
            with pytest.raises(TypeError, match=name):
                RetryPolicy(max_attempts=6, **{name: value})
        with pytest.raises(TypeError, match="backoff_max_s"):
            RetryPolicy(max_attempts=6, backoff_max_s=5.0)

    def test_jitter_is_deterministic_per_seed_key_attempt(self):
        with pytest.raises(TypeError, match="jitter"):
            RetryPolicy(max_attempts=3, jitter=0.5)
        with pytest.raises(TypeError, match="seed"):
            RetryPolicy(max_attempts=3, seed=42)

    def test_jitter_varies_across_keys_and_seeds(self):
        for name in self.REMOVED:
            with pytest.raises(TypeError, match=name):
                RetryPolicy(**{name: 1})

    def test_budget_bounds_every_jittered_wait(self):
        policy = RetryPolicy(max_attempts=4, timeout_s=0.5)
        assert HANG_GRACE == 4.0
        assert _task_budget(policy) == 0.5 * 4 * HANG_GRACE
        assert _task_budget(RetryPolicy(max_attempts=4)) is None

    def test_validation(self):
        for name in self.REMOVED:
            with pytest.raises(TypeError, match=name):
                RetryPolicy(**{name: -1.0})
        with pytest.raises(TypeError, match="hang_grace"):
            RetryPolicy(hang_grace=0.5)
