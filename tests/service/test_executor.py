"""SolveExecutor: one thread pool, backpressure, lifecycle."""

import os
import threading
import time

import pytest

from repro.errors import ReproError
from repro.service import executor as executor_module
from repro.service.executor import ServiceOverloaded, SolveExecutor


def wait_until(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return False


def release_after(event):
    event.wait(10.0)
    return "done"


def worker_identity():
    return os.getpid(), threading.current_thread().name


class TestResolveMode:
    """The executor has one mode: threads in this process."""

    def test_explicit_modes_pass_through(self):
        with pytest.raises(TypeError):
            SolveExecutor(mode="thread")

    def test_auto_single_worker_is_thread(self):
        executor = SolveExecutor(workers=1)
        executor.start()
        try:
            where = executor.submit(worker_identity).result(timeout=5)
        finally:
            executor.close()
        assert where[0] == os.getpid()
        assert where[1].startswith("repro-solve")

    def test_auto_multi_worker_respects_cpus(self):
        executor = SolveExecutor(workers=4)
        executor.start()
        try:
            futures = [executor.submit(worker_identity) for _ in range(8)]
            where = {future.result(timeout=5) for future in futures}
        finally:
            executor.close()
        assert {pid for pid, _ in where} == {os.getpid()}
        assert all(name.startswith("repro-solve") for _, name in where)

    def test_unknown_mode_rejected(self):
        assert not hasattr(executor_module, "resolve_mode")
        assert not hasattr(executor_module, "MODES")
        with pytest.raises(TypeError):
            SolveExecutor(workers=2, mode="process")


class TestConstruction:
    def test_rejects_bad_worker_count(self):
        with pytest.raises(ReproError, match="workers"):
            SolveExecutor(workers=0)

    def test_rejects_negative_queue_depth(self):
        with pytest.raises(ReproError, match="queue_depth"):
            SolveExecutor(workers=1, queue_depth=-1)

    def test_capacity_is_workers_plus_queue(self):
        executor = SolveExecutor(workers=2, queue_depth=3)
        assert executor.capacity == 5

    def test_submit_before_start_rejected(self):
        executor = SolveExecutor(workers=1)
        with pytest.raises(ReproError, match="not running"):
            executor.submit(sorted, [3, 1, 2])


class TestBackpressure:
    def test_submits_beyond_capacity_rejected(self):
        executor = SolveExecutor(workers=1, queue_depth=1)
        executor.start()
        gate = threading.Event()
        try:
            running = executor.submit(release_after, gate)   # occupies worker
            queued = executor.submit(release_after, gate)    # occupies queue
            with pytest.raises(ServiceOverloaded) as excinfo:
                executor.submit(release_after, gate)
            assert excinfo.value.retry_after_s > 0
            gate.set()
            assert running.result(timeout=5) == "done"
            assert queued.result(timeout=5) == "done"
        finally:
            gate.set()
            executor.close()

    def test_capacity_frees_as_jobs_finish(self):
        executor = SolveExecutor(workers=1, queue_depth=0)
        executor.start()
        gate = threading.Event()
        try:
            first = executor.submit(release_after, gate)
            with pytest.raises(ServiceOverloaded):
                executor.submit(release_after, gate)
            gate.set()
            assert first.result(timeout=5) == "done"
            assert wait_until(lambda: executor.stats()["inflight"] == 0)
            again = executor.submit(sorted, [2, 1])
            assert again.result(timeout=5) == [1, 2]
        finally:
            gate.set()
            executor.close()

    def test_failed_job_still_frees_capacity(self):
        executor = SolveExecutor(workers=1, queue_depth=0)
        executor.start()
        try:
            bad = executor.submit(int, "not a number")
            with pytest.raises(ValueError):
                bad.result(timeout=5)
            assert wait_until(lambda: executor.stats()["inflight"] == 0)
        finally:
            executor.close()


class TestLifecycle:
    def test_stats_shape(self):
        executor = SolveExecutor(workers=2, queue_depth=4)
        executor.start()
        try:
            stats = executor.stats()
            assert set(stats) == {"workers", "queue_depth", "capacity", "inflight"}
            assert stats["workers"] == 2
            assert stats["queue_depth"] == 4
            assert stats["capacity"] == 6
            assert stats["inflight"] == 0
        finally:
            executor.close()

    def test_submit_after_close_rejected(self):
        executor = SolveExecutor(workers=1)
        executor.start()
        executor.close()
        with pytest.raises(ReproError, match="not running"):
            executor.submit(sorted, [1])
