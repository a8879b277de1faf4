"""Tests for cooperative deadline cancellation inside the solvers."""

import time
import types

import pytest

from repro.core.dp import check_deadline
from repro.core.rank import compute_rank
from repro.errors import DeadlineExceeded, ReproError
from repro.runner import PointSpec, RetryPolicy, run_batch


class TestCheckDeadline:
    def test_none_never_raises(self):
        check_deadline(None)

    def test_future_deadline_passes(self):
        check_deadline(time.monotonic() + 60.0)

    def test_expired_deadline_raises_with_location(self):
        with pytest.raises(DeadlineExceeded, match="dp pair"):
            check_deadline(time.monotonic() - 1.0, where="dp pair 0, group 3")


class TestComputeRankDeadline:
    def test_expired_deadline_aborts_solve(self, tiny_problem):
        with pytest.raises(DeadlineExceeded):
            compute_rank(tiny_problem, deadline=time.monotonic() - 1.0)

    def test_expired_deadline_stops_before_fits_check(
        self, tiny_problem, monkeypatch
    ):
        """The Definition-3 fits check walks every group: a spent
        deadline must raise before it runs, not after."""
        from repro.core import dp

        def pack_suffix(*args, **kwargs):
            raise AssertionError("fits check ran past an expired deadline")

        monkeypatch.setattr(dp, "pack_suffix", pack_suffix)
        tables, _ = tiny_problem.tables()
        with pytest.raises(DeadlineExceeded, match="dp fits check"):
            dp.solve_rank_dp(tables, 16, deadline=time.monotonic() - 1.0)

    def test_deadline_during_deferred_rank_scan(self, tiny_problem, monkeypatch):
        """The kernel scans rank candidates after its pair loop, bottom
        pair first: a deadline that passes only then still stops the
        solve, naming the rank level it reached."""
        from repro.core import dp, dp_numpy

        tables, _ = tiny_problem.tables()
        clock = [0.0]
        clock_only = types.SimpleNamespace(
            monotonic=lambda: clock[0], perf_counter=time.perf_counter
        )
        monkeypatch.setattr(dp, "time", clock_only)
        scanned = []
        real = dp_numpy._scan_rank_levels

        def scan(tables, disc, stats, deadline, step, pair, floor):
            clock[0] = 2.0  # the pair loop is over; the deadline has passed
            scanned.append(pair)
            return real(tables, disc, stats, deadline, step, pair, floor)

        monkeypatch.setattr(dp_numpy, "_scan_rank_levels", scan)
        with pytest.raises(DeadlineExceeded, match=r"dp pair 1, rank level \d+"):
            dp.solve_rank_dp(tables, 16, deadline=1.0)
        assert scanned == [tables.num_pairs - 1]

    def test_generous_deadline_is_harmless(self, tiny_problem):
        unlimited = compute_rank(tiny_problem)
        bounded = compute_rank(tiny_problem, deadline=time.monotonic() + 300.0)
        assert bounded == unlimited

    def test_deadline_exceeded_is_retryable(self):
        assert issubclass(DeadlineExceeded, ReproError)
        assert RetryPolicy().is_retryable(DeadlineExceeded("slow"))


class TestTimeoutThroughRunner:
    def test_timed_out_point_is_journaled_as_failure(self, tiny_problem):
        def evaluate(point, attempt):
            # Simulate honouring attempt.deadline the way compute_rank
            # does: the deadline for a tiny timeout is already in the
            # past by the time the solver polls it.
            check_deadline(time.monotonic() - 1.0, where="test solver")

        outcome = run_batch(
            "timeout-demo",
            [PointSpec(key="p", value=1)],
            evaluate,
            policy=RetryPolicy(max_attempts=2, timeout_s=0.001),
            keep_going=True,
        )
        (failure,) = outcome.failures
        assert failure.error_type == "DeadlineExceeded"
        assert len(failure.attempts) == 2  # timeout consumed the retry too
