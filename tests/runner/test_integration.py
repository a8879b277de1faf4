"""Harness integration with sweeps, corners, and architecture search.

Includes the PR's acceptance criterion: a sweep where one point raises
``RankComputationError`` completes the other N-1 points under
``keep_going``, records the failure, and ``resume`` recomputes only the
missing point, producing a :class:`SweepResult` identical to an
uninterrupted run.
"""

import pytest

import repro.analysis.sweep as sweep_mod
from repro.analysis.corners import STANDARD_CORNERS, rank_across_corners
from repro.analysis.sweep import run_sweep
from repro.errors import RankComputationError, RunnerError
from repro.optimize import DesignSpace, optimize_architecture
from repro.runner import RetryPolicy

FAST = dict(bunch_size=2000, repeater_units=128)
VALUES = [0.2, 0.3, 0.4]


def failing_compute_rank(module, monkeypatch, fail_calls=(), fail_forever=()):
    """Patch ``module.compute_rank`` to fail on chosen call indices or
    whenever the problem's repeater fraction is in ``fail_forever``.

    Sweeps, corners and architecture search all solve through
    :class:`repro.analysis.sweep.RankEvaluator`, so ``sweep_mod`` is the
    one place to inject a failing solve."""
    real = module.compute_rank
    state = {"calls": 0, "evaluated": []}

    def wrapper(problem, **kwargs):
        index = state["calls"]
        state["calls"] += 1
        state["evaluated"].append(problem.die.repeater_fraction)
        if index in fail_calls or problem.die.repeater_fraction in fail_forever:
            raise RankComputationError(f"injected failure (call {index})")
        return real(problem, **kwargs)

    monkeypatch.setattr(module, "compute_rank", wrapper)
    return state


class TestSweepAcceptance:
    def test_keep_going_completes_other_points_and_records_failure(
        self, small_baseline, monkeypatch
    ):
        failing_compute_rank(sweep_mod, monkeypatch, fail_forever={0.3})
        sweep = run_sweep(
            "R",
            VALUES,
            small_baseline.with_repeater_fraction,
            keep_going=True,
            **FAST,
        )
        assert not sweep.is_complete
        assert sweep.values() == [0.2, 0.4]
        assert sweep.failed_values() == [0.3]
        (failure,) = sweep.failures
        assert failure.error_type == "RankComputationError"
        assert "injected failure" in failure.error_message
        assert sweep.journal.failed == 1

    def test_resume_recomputes_only_missing_point(
        self, small_baseline, monkeypatch, tmp_path
    ):
        path = tmp_path / "ck.json"
        uninterrupted = run_sweep(
            "R", VALUES, small_baseline.with_repeater_fraction, **FAST
        )
        real = sweep_mod.compute_rank
        failing_compute_rank(sweep_mod, monkeypatch, fail_forever={0.3})
        partial = run_sweep(
            "R",
            VALUES,
            small_baseline.with_repeater_fraction,
            keep_going=True,
            checkpoint=path,
            **FAST,
        )
        assert partial.failed_values() == [0.3]
        monkeypatch.setattr(sweep_mod, "compute_rank", real)  # healthy again
        resumed_state = failing_compute_rank(sweep_mod, monkeypatch)
        resumed = run_sweep(
            "R",
            VALUES,
            small_baseline.with_repeater_fraction,
            checkpoint=path,
            resume=True,
            **FAST,
        )
        # Only the missing point was recomputed...
        assert resumed_state["evaluated"] == [0.3]
        # ...and the result is identical to the uninterrupted run.
        assert resumed == uninterrupted
        assert resumed.is_complete
        assert resumed.journal.cached == 2

    def test_strict_mode_raises_with_checkpoint_hint(
        self, small_baseline, monkeypatch, tmp_path
    ):
        path = tmp_path / "ck.json"
        failing_compute_rank(sweep_mod, monkeypatch, fail_forever={0.3})
        with pytest.raises(RunnerError, match="resume"):
            run_sweep(
                "R",
                VALUES,
                small_baseline.with_repeater_fraction,
                checkpoint=path,
                **FAST,
            )
        assert path.exists()

    def test_retry_recovers_transient_failure(
        self, small_baseline, monkeypatch
    ):
        failing_compute_rank(sweep_mod, monkeypatch, fail_calls={1})
        sweep = run_sweep(
            "R",
            VALUES,
            small_baseline.with_repeater_fraction,
            policy=RetryPolicy(max_attempts=2),
            **FAST,
        )
        assert sweep.is_complete
        assert sweep.journal.retries == 1
        # The retry walked the degradation ladder (coarser bunching).
        assert sweep.journal.degradations()


class TestCorners:
    def test_keep_going_skips_failing_corner(
        self, small_baseline, monkeypatch
    ):
        real = sweep_mod.compute_rank
        calls = {"n": 0}

        def flaky(problem, **kwargs):
            calls["n"] += 1
            if calls["n"] == 2:
                raise RankComputationError("injected corner failure")
            return real(problem, **kwargs)

        monkeypatch.setattr(sweep_mod, "compute_rank", flaky)
        report = rank_across_corners(
            small_baseline, keep_going=True, bunch_size=2000, repeater_units=128
        )
        assert not report.is_complete
        assert len(report.failures) == 1
        assert report.failures[0].key == STANDARD_CORNERS[1].name
        # Sign-off still works over the surviving corners.
        worst_corner, worst_result = report.worst
        assert worst_result.normalized >= 0

    def test_all_corners_failing_has_no_signoff(
        self, small_baseline, monkeypatch
    ):
        monkeypatch.setattr(
            sweep_mod,
            "compute_rank",
            lambda problem, **kwargs: (_ for _ in ()).throw(
                RankComputationError("down")
            ),
        )
        report = rank_across_corners(
            small_baseline, keep_going=True, bunch_size=2000, repeater_units=128
        )
        with pytest.raises(RankComputationError):
            report.worst

    def test_corner_resume(self, small_baseline, monkeypatch, tmp_path):
        path = tmp_path / "ck.json"
        real = sweep_mod.compute_rank
        calls = {"n": 0}

        def flaky(problem, **kwargs):
            calls["n"] += 1
            if calls["n"] == 3:
                raise RankComputationError("injected")
            return real(problem, **kwargs)

        monkeypatch.setattr(sweep_mod, "compute_rank", flaky)
        partial = rank_across_corners(
            small_baseline,
            keep_going=True,
            checkpoint=path,
            bunch_size=2000,
            repeater_units=128,
        )
        monkeypatch.setattr(sweep_mod, "compute_rank", real)
        resumed = rank_across_corners(
            small_baseline,
            checkpoint=path,
            resume=True,
            bunch_size=2000,
            repeater_units=128,
        )
        assert resumed.is_complete
        assert resumed.journal.cached == len(STANDARD_CORNERS) - 1
        uninterrupted = rank_across_corners(
            small_baseline, bunch_size=2000, repeater_units=128
        )
        assert resumed == uninterrupted


class TestOptimize:
    def space(self, problem):
        # Two candidates: small enough to always take the exhaustive
        # (checkpointable) search path.
        return DesignSpace(
            node=problem.die.node,
            local_pairs=(1,),
            semi_global_pairs=(1, 2),
            global_pairs=(1,),
            permittivities=(3.9,),
        )

    def test_exhaustive_keep_going_skips_failed_candidate(
        self, small_baseline, monkeypatch
    ):
        failing_compute_rank(sweep_mod, monkeypatch, fail_calls={0})
        result = optimize_architecture(
            small_baseline,
            self.space(small_baseline),
            keep_going=True,
            bunch_size=2000,
            repeater_units=128,
        )
        assert len(result.failures) == 1
        assert len(result.evaluated) == 1
        assert result.best is not None

    def test_exhaustive_all_failures_raises(self, small_baseline, monkeypatch):
        monkeypatch.setattr(
            sweep_mod,
            "compute_rank",
            lambda problem, **kwargs: (_ for _ in ()).throw(
                RankComputationError("down")
            ),
        )
        with pytest.raises(RunnerError, match="every candidate"):
            optimize_architecture(
                small_baseline,
                self.space(small_baseline),
                keep_going=True,
                bunch_size=2000,
                repeater_units=128,
            )

    def test_exhaustive_resume(self, small_baseline, monkeypatch, tmp_path):
        path = tmp_path / "ck.json"
        real = sweep_mod.compute_rank
        uninterrupted = optimize_architecture(
            small_baseline,
            self.space(small_baseline),
            bunch_size=2000,
            repeater_units=128,
        )
        failing_compute_rank(sweep_mod, monkeypatch, fail_calls={1})
        partial = optimize_architecture(
            small_baseline,
            self.space(small_baseline),
            keep_going=True,
            checkpoint=path,
            bunch_size=2000,
            repeater_units=128,
        )
        assert len(partial.failures) == 1
        monkeypatch.setattr(sweep_mod, "compute_rank", real)
        resumed_state = failing_compute_rank(sweep_mod, monkeypatch)
        resumed = optimize_architecture(
            small_baseline,
            self.space(small_baseline),
            checkpoint=path,
            resume=True,
            bunch_size=2000,
            repeater_units=128,
        )
        assert resumed_state["calls"] == 1  # only the missing candidate
        assert resumed == uninterrupted


class TestBatchKeywords:
    """Sweeps, corners and search share one driver's batch keywords."""

    @pytest.fixture
    def callers(self, small_baseline):
        space = TestOptimize().space(small_baseline)
        return {
            "sweep": lambda **kw: run_sweep(
                "R", VALUES, small_baseline.with_repeater_fraction, **FAST, **kw
            ),
            "corners": lambda **kw: rank_across_corners(
                small_baseline, **FAST, **kw
            ),
            "optimize": lambda **kw: optimize_architecture(
                small_baseline, space, **FAST, **kw
            ),
        }

    @pytest.mark.parametrize("caller", ["sweep", "corners", "optimize"])
    def test_unknown_keyword_raises_before_any_work(
        self, callers, caller, tmp_path, monkeypatch
    ):
        state = failing_compute_rank(sweep_mod, monkeypatch)
        for keyword in ("bogus", "checkpoint_path"):
            with pytest.raises(TypeError, match=keyword):
                callers[caller](checkpoint=tmp_path / "ck.json", **{keyword: 1})
        assert state["calls"] == 0
        assert not (tmp_path / "ck.json").exists()

    @pytest.mark.parametrize("caller", ["sweep", "corners", "optimize"])
    def test_every_batch_keyword_accepted(self, callers, caller, tmp_path):
        result = callers[caller](
            policy=RetryPolicy(max_attempts=2),
            keep_going=True,
            checkpoint=tmp_path / "ck.json",
            resume=False,
            jobs=1,
            pool_mode="sequential",
            checkpoint_every=2,
            fault_schedule=None,
            cache=None,
        )
        assert not result.failures
        assert (tmp_path / "ck.json").exists()
