"""Chaos suite: the runner's recovery contract under injected faults.

The contract, for ANY deterministic fault schedule: ``run_batch``
either completes with the same results as a fault-free sequential run,
or raises a documented :class:`~repro.errors.ReproError` leaving a
loadable checkpoint from which ``resume=True`` completes with the same
results.  Fixed seeds (not Hypothesis) drive the schedule generator so
CI replays byte-identical chaos runs.

Process-level behaviours — SIGTERM leaves no orphans, a kill
mid-checkpoint-commit preserves the previous generation — run the
runner in a real subprocess.
"""

import json
import os
import random
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

from repro import obs
from repro.errors import ReproError, RunnerError
from repro.faultkit import ENV_VAR, KINDS, FaultSchedule, FaultSpec
from repro.runner import PointSpec, RetryPolicy, run_batch
from repro.runner.checkpoint import load_checkpoint
from repro.runner.journal import STATUS_FAILED

from dataclasses import dataclass

from .test_parallel import specs

SRC = str(Path(__file__).resolve().parents[2] / "src")


@dataclass(frozen=True)
class ChaosEvaluate:
    """Deterministic picklable evaluator whose result is independent of
    the attempt index — retries and resubmissions converge to the same
    value, so identity with the fault-free run is exact."""

    def __call__(self, point, attempt):
        return {"value": point.value * 10}

#: Fixed chaos seeds; CI replays exactly these schedules.
SEEDS = (1, 2, 3, 4, 5, 6)

#: Sequential runs never reach the worker-only sites, so kill/hang/
#: pickle specs would be inert there; draw from the kinds that can fire.
SEQ_KINDS = ("raise", "torn", "corrupt")


def _policy():
    return RetryPolicy(max_attempts=2, timeout_s=0.5, hang_grace=2.0)


def _baseline_results(n=6):
    outcome = run_batch(
        "chaos", specs(n), ChaosEvaluate(), policy=_policy(), jobs=1
    )
    return dict(outcome.results)


@pytest.fixture
def metrics():
    obs.reset()
    obs.enable()
    yield
    obs.disable()
    obs.reset()


class TestChaosProperty:
    """Fixed-seed sweep of generated schedules across jobs=1 and jobs=4."""

    @pytest.mark.parametrize("jobs", [1, 4])
    @pytest.mark.parametrize("seed", SEEDS)
    def test_completes_or_leaves_resumable_checkpoint(self, tmp_path, seed, jobs):
        kinds = SEQ_KINDS if jobs == 1 else KINDS
        schedule = FaultSchedule.seeded(
            random.Random(seed),
            [s.key for s in specs()],
            kinds=kinds,
            hang_s=5.0,
            seed=seed,
        )
        baseline = _baseline_results()
        path = tmp_path / "chaos_ck.json"
        try:
            outcome = run_batch(
                "chaos",
                specs(),
                ChaosEvaluate(),
                policy=_policy(),
                jobs=jobs,
                pool_mode="warm",
                checkpoint_path=path,
                fault_schedule=schedule,
            )
        except ReproError:
            # Documented failure exit: the checkpoint (some generation)
            # must be loadable and a fault-free resume must converge to
            # the baseline.
            assert load_checkpoint(path, expect_run="chaos") is not None
            resumed = run_batch(
                "chaos",
                specs(),
                ChaosEvaluate(),
                policy=_policy(),
                jobs=jobs,
                pool_mode="warm",
                checkpoint_path=path,
                resume=True,
            )
            assert not resumed.failures
            assert dict(resumed.results) == baseline
        else:
            assert not outcome.failures
            assert dict(outcome.results) == baseline
            # Even when the final write was torn/corrupted, a
            # generation must remain loadable.
            assert load_checkpoint(path, expect_run="chaos") is not None


class TestInjectedRaise:
    def test_retry_absorbs_single_injected_raise(self, metrics):
        schedule = FaultSchedule(
            specs=(
                FaultSpec(
                    site="executor.attempt.start",
                    kind="raise",
                    point="p[2]",
                    attempt=0,
                ),
            )
        )
        outcome = run_batch(
            "chaos",
            specs(),
            ChaosEvaluate(),
            policy=_policy(),
            fault_schedule=schedule,
        )
        assert dict(outcome.results) == _baseline_results()
        by_key = {r.key: r for r in outcome.journal.records}
        assert len(by_key["p[2]"].attempts) == 2
        assert by_key["p[2]"].attempts[0].error_type == "InjectedFault"
        assert obs.snapshot()["counters"]["fault.injected.raise"] == 1

    def test_exhausted_attempts_fail_strict_with_checkpoint(self, tmp_path):
        schedule = FaultSchedule(
            specs=(
                FaultSpec(
                    site="executor.attempt.start",
                    kind="raise",
                    point="p[3]",
                    times=2,
                ),
            )
        )
        path = tmp_path / "ck.json"
        with pytest.raises(RunnerError, match=r"p\[3\]"):
            run_batch(
                "chaos",
                specs(),
                ChaosEvaluate(),
                policy=_policy(),
                checkpoint_path=path,
                fault_schedule=schedule,
            )
        assert set(load_checkpoint(path).points) == {"p[0]", "p[1]", "p[2]"}


class TestWorkerDeath:
    def test_killed_worker_resubmits_and_completes(self, metrics):
        schedule = FaultSchedule(
            specs=(
                FaultSpec(
                    site="parallel.worker.start",
                    kind="kill",
                    point="p[1]",
                    submit=0,
                ),
            )
        )
        outcome = run_batch(
            "chaos",
            specs(),
            ChaosEvaluate(),
            policy=_policy(),
            jobs=2,
            pool_mode="warm",
            fault_schedule=schedule,
        )
        assert dict(outcome.results) == _baseline_results()
        counters = obs.snapshot()["counters"]
        assert counters["runner.worker_deaths"] >= 1
        assert counters["runner.resubmissions"] >= 1

    def test_repeatedly_killed_point_fails_as_worker_crash(self, metrics):
        # No submit matcher: every worker evaluating p[1] dies, until
        # the policy's submission budget is spent.
        schedule = FaultSchedule(
            specs=(
                FaultSpec(
                    site="parallel.worker.start", kind="kill", point="p[1]"
                ),
            )
        )
        outcome = run_batch(
            "chaos",
            specs(),
            ChaosEvaluate(),
            policy=_policy(),
            jobs=2,
            pool_mode="warm",
            keep_going=True,
            fault_schedule=schedule,
        )
        assert set(outcome.results) == {s.key for s in specs()} - {"p[1]"}
        by_key = {r.key: r for r in outcome.journal.records}
        assert by_key["p[1]"].status == STATUS_FAILED
        assert by_key["p[1]"].attempts[-1].error_type == "WorkerCrash"
        assert obs.snapshot()["counters"]["runner.worker_deaths"] == 2

    def test_degrades_to_sequential_when_pool_keeps_dying(self, metrics):
        # Every worker dies on its first task, whatever the point: the
        # pool exhausts its death budget and the parent finishes the
        # batch in-process.
        schedule = FaultSchedule(
            specs=(
                FaultSpec(
                    site="parallel.worker.start", kind="kill", times=1000
                ),
            )
        )
        outcome = run_batch(
            "chaos",
            specs(),
            ChaosEvaluate(),
            policy=RetryPolicy(max_attempts=20),
            jobs=2,
            pool_mode="warm",
            fault_schedule=schedule,
        )
        assert dict(outcome.results) == _baseline_results()
        assert not outcome.failures
        counters = obs.snapshot()["counters"]
        assert counters["runner.pool_degradations"] >= 1
        assert counters["runner.worker_deaths"] > 4


class TestHangWatchdog:
    def test_hung_worker_reaped_and_point_resubmitted(self, metrics):
        schedule = FaultSchedule(
            specs=(
                FaultSpec(
                    site="parallel.worker.start",
                    kind="hang",
                    point="p[0]",
                    submit=0,
                    arg=60.0,
                ),
            )
        )
        policy = RetryPolicy(max_attempts=2, timeout_s=0.2, hang_grace=1.5)
        started = time.monotonic()
        outcome = run_batch(
            "chaos",
            specs(),
            ChaosEvaluate(),
            policy=policy,
            jobs=2,
            pool_mode="warm",
            fault_schedule=schedule,
        )
        elapsed = time.monotonic() - started
        assert dict(outcome.results) == _baseline_results()
        # Reaped by the watchdog (budget 0.2*2*1.5 = 0.6s), not by
        # waiting out the 60s sleep.
        assert elapsed < 30.0
        counters = obs.snapshot()["counters"]
        assert counters["runner.hangs_reaped"] >= 1
        assert counters["runner.worker_deaths"] >= 1


class TestPickleFault:
    def test_unpicklable_result_raises_documented_error(self, tmp_path):
        schedule = FaultSchedule(
            specs=(
                FaultSpec(
                    site="parallel.result",
                    kind="pickle",
                    point="p[2]",
                    submit=0,
                ),
            )
        )
        path = tmp_path / "ck.json"
        with pytest.raises(RunnerError, match="serialize"):
            run_batch(
                "chaos",
                specs(),
                ChaosEvaluate(),
                policy=_policy(),
                jobs=2,
                pool_mode="warm",
                checkpoint_path=path,
                fault_schedule=schedule,
            )
        resumed = run_batch(
            "chaos",
            specs(),
            ChaosEvaluate(),
            policy=_policy(),
            jobs=2,
            pool_mode="warm",
            checkpoint_path=path,
            resume=True,
        )
        assert dict(resumed.results) == _baseline_results()


class TestShmAndChunkFaults:
    """Targeted schedules for the warm pool's payload and chunk sites.

    Same contract as the seeded sweep: identical to the fault-free
    sequential run, or a documented error with a resumable checkpoint.
    """

    def test_attach_fault_surfaces_as_documented_error(self, tmp_path):
        # Workers re-arm the schedule from the shipped blob, so a
        # times=1 payload-load fault poisons every worker at startup;
        # the replayed error must reach the parent verbatim.
        schedule = FaultSchedule(
            specs=(FaultSpec(site="pool.payload.load", kind="raise"),)
        )
        path = tmp_path / "ck.json"
        with pytest.raises(ReproError, match="pool.payload.load"):
            run_batch(
                "chaos",
                specs(),
                ChaosEvaluate(),
                policy=_policy(),
                jobs=2,
                pool_mode="warm",
                checkpoint_path=path,
                fault_schedule=schedule,
            )
        assert load_checkpoint(path, expect_run="chaos") is not None
        resumed = run_batch(
            "chaos",
            specs(),
            ChaosEvaluate(),
            policy=_policy(),
            jobs=2,
            pool_mode="warm",
            checkpoint_path=path,
            resume=True,
        )
        assert dict(resumed.results) == _baseline_results()

    def test_kill_at_chunk_start_resubmits_and_completes(self, metrics):
        # 24 points over 2 workers chunk as 3-point runs, so p[3] leads
        # the second chunk and the kill strands all three of its
        # entries; they come back at submit=1 and no longer match.
        schedule = FaultSchedule(
            specs=(
                FaultSpec(
                    site="pool.chunk.start",
                    kind="kill",
                    point="p[3]",
                    submit=0,
                ),
            )
        )
        outcome = run_batch(
            "chaos",
            specs(24),
            ChaosEvaluate(),
            policy=_policy(),
            jobs=2,
            pool_mode="warm",
            fault_schedule=schedule,
        )
        assert dict(outcome.results) == _baseline_results(24)
        snapshot = obs.snapshot()
        assert snapshot["gauges"]["parallel.chunk_size"] == 3
        counters = snapshot["counters"]
        assert counters["runner.worker_deaths"] == 1
        assert counters["runner.resubmissions"] == 3

    def test_kill_mid_chunk_resubmits_only_unanswered_entries(self, metrics):
        # p[1] is the middle of the first 3-point chunk: p[0] has
        # already streamed back, so only p[1] and p[2] are resubmitted.
        schedule = FaultSchedule(
            specs=(
                FaultSpec(
                    site="parallel.worker.start",
                    kind="kill",
                    point="p[1]",
                    submit=0,
                ),
            )
        )
        outcome = run_batch(
            "chaos",
            specs(24),
            ChaosEvaluate(),
            policy=_policy(),
            jobs=2,
            pool_mode="warm",
            fault_schedule=schedule,
        )
        assert dict(outcome.results) == _baseline_results(24)
        counters = obs.snapshot()["counters"]
        assert counters["runner.worker_deaths"] == 1
        assert counters["runner.resubmissions"] == 2

    def test_dispatch_fault_leaves_resumable_checkpoint(self, tmp_path):
        # Parent-side failure while feeding the work queue: the run
        # aborts with the injected error but the finally-path still
        # commits whatever completed.
        schedule = FaultSchedule(
            specs=(FaultSpec(site="pool.chunk.dispatch", kind="raise"),)
        )
        path = tmp_path / "ck.json"
        with pytest.raises(ReproError, match="pool.chunk.dispatch"):
            run_batch(
                "chaos",
                specs(),
                ChaosEvaluate(),
                policy=_policy(),
                jobs=2,
                pool_mode="warm",
                checkpoint_path=path,
                fault_schedule=schedule,
            )
        assert load_checkpoint(path, expect_run="chaos") is not None
        resumed = run_batch(
            "chaos",
            specs(),
            ChaosEvaluate(),
            policy=_policy(),
            checkpoint_path=path,
            resume=True,
        )
        assert dict(resumed.results) == _baseline_results()


def _wait_for(predicate, timeout_s, message):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.05)
    raise AssertionError(message)


def _pid_dead(pid):
    try:
        os.kill(pid, 0)
    except (ProcessLookupError, PermissionError):
        return True
    # Forked children of a dead parent may linger as zombies until
    # reaped by init; a zombie is dead for our purposes.
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().split(")")[-1].split()[0] == "Z"
    except OSError:
        return True


class TestSigtermReapsWorkers:
    def test_sigterm_exits_143_and_leaves_no_orphans(self, tmp_path):
        pids_file = tmp_path / "worker_pids.txt"
        ck = tmp_path / "ck.json"
        driver = textwrap.dedent(
            f"""
            import os, sys, time
            sys.path.insert(0, {SRC!r})
            from repro.runner import PointSpec, run_batch

            def evaluate(point, attempt):
                with open({str(pids_file)!r}, "a") as fh:
                    fh.write(str(os.getpid()) + chr(10))
                    fh.flush()
                time.sleep(60.0)
                return point.value

            points = [PointSpec(key=f"p{{i}}", value=float(i)) for i in range(4)]
            run_batch("sig", points, evaluate, jobs=2, pool_mode="warm",
                      checkpoint_path={str(ck)!r})
            """
        )
        proc = subprocess.Popen(
            [sys.executable, "-c", driver],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        try:
            _wait_for(
                lambda: pids_file.exists()
                and len(pids_file.read_text().split()) >= 2,
                30.0,
                "workers never started",
            )
            worker_pids = [int(p) for p in pids_file.read_text().split()]
            proc.send_signal(signal.SIGTERM)
            proc.wait(timeout=30.0)
        finally:
            proc.kill()
            proc.wait(timeout=10.0)
        assert proc.returncode == 143  # 128 + SIGTERM
        for pid in worker_pids:
            _wait_for(
                lambda pid=pid: _pid_dead(pid),
                10.0,
                f"worker {pid} survived SIGTERM of the parent",
            )
        # The signal path unwinds through run_batch's finally: the
        # (empty) identity checkpoint was still committed.
        assert load_checkpoint(ck, expect_run="sig") is not None


class TestKillMidCommit:
    def test_torn_write_preserves_previous_generation_and_resumes(self, tmp_path):
        ck = tmp_path / "ck.json"
        schedule = {
            "specs": [
                {"site": "checkpoint.write.mid", "kind": "kill", "occurrence": 2}
            ]
        }
        driver = textwrap.dedent(
            f"""
            import sys
            sys.path.insert(0, {SRC!r})
            from repro.runner import PointSpec, run_batch

            def evaluate(point, attempt):
                return point.value * 10

            points = [PointSpec(key=f"p[{{i}}]", value=float(i)) for i in range(6)]
            run_batch("torn", points, evaluate, checkpoint_path={str(ck)!r})
            """
        )
        env = dict(os.environ)
        env[ENV_VAR] = json.dumps(schedule)
        proc = subprocess.run(
            [sys.executable, "-c", driver],
            env=env,
            capture_output=True,
            timeout=120,
        )
        # SIGKILL mid-commit: after the identity write (occurrence 0)
        # and p[0]'s commit (occurrence 1), the process dies during
        # p[1]'s commit — after the temp file, before the renames.
        assert proc.returncode == -signal.SIGKILL
        loaded = load_checkpoint(ck, expect_run="torn")
        assert set(loaded.points) == {"p[0]"}
        # Resume in-process without faults: identical to a clean run.
        points = [PointSpec(key=f"p[{i}]", value=float(i)) for i in range(6)]
        outcome = run_batch(
            "torn",
            points,
            ChaosEvaluate(),
            checkpoint_path=ck,
            resume=True,
        )
        expected = {f"p[{i}]": {"value": float(i) * 10} for i in range(6)}
        expected["p[0]"] = 0.0  # resumed from the killed run's evaluator
        assert dict(outcome.results) == expected
        final = load_checkpoint(ck, expect_run="torn")
        assert final.generation == "current"
        assert list(final.points) == [f"p[{i}]" for i in range(6)]
