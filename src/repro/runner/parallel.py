"""Warm worker-pool backend for the batch executor.

:func:`repro.runner.executor.run_batch` dispatches independent points
to a worker pool when asked for ``jobs > 1``.  The pool is built
directly on :mod:`multiprocessing` pipes rather than
``concurrent.futures`` so the parent owns every recovery decision the
chaos suite (:mod:`repro.faultkit`) exercises, and it is *warm*:

* **spawn once, one payload** — workers are started once per batch.
  The evaluator, policy, and point list are pickled once by
  :func:`dumps_worker_payload`; each worker receives those bytes as a
  process argument (free under fork) and unpickles them at startup
  (``pool.payload.load`` fault site);
* **chunked work queue** — instead of one pickled submission per
  point, workers pull *chunks* of point indices
  (:func:`resolve_chunk_size`: about four waves per worker, capped)
  and stream one pre-pickled result message per point, so per-task IPC
  is a few bytes each way (``pool.chunk.dispatch`` /
  ``pool.chunk.start`` fault sites, ``parallel.chunks_dispatched`` /
  ``parallel.chunk_size`` metrics);
* **sequential auto-fallback** — :func:`should_use_pool` routes the
  batch back to in-process execution when a pool cannot win: explicit
  ``pool_mode="sequential"``, one effective job, a sub-2-point batch,
  or (``pool_mode="auto"``) a single usable CPU
  (``parallel.pool_fallbacks``).  ``pool_mode="warm"`` forces the pool
  for tests and benchmarks;
* **dead-worker detection** — the parent waits on each worker's
  *process sentinel* alongside its result pipe; a worker that dies
  mid-chunk (OOM kill, segfault, injected ``SIGKILL``) is detected
  immediately and every unanswered entry of its chunk is resubmitted
  to a replacement, bounded by ``policy.max_attempts`` submissions
  (``runner.worker_deaths`` / ``runner.resubmissions``);
* **hang watchdog** — with ``policy.timeout_s`` set, a worker whose
  chunk makes no progress for ``HANG_GRACE ×`` (4x) one point's
  total cooperative budget (timeout × attempts) is presumed
  stuck and reaped with ``SIGKILL`` (``runner.hangs_reaped``), then
  treated as a death; each streamed result resets the deadline, so the
  budget is per point even inside a large chunk;
* **graceful degradation** — when the pool keeps dying (more than
  ``max(4, 2 × workers)`` deaths), the backend stops spawning
  replacements and hands the still-pending points back to the caller
  for sequential in-process execution (``runner.pool_degradations``);
* **no orphans** — ``SIGTERM``/``SIGINT`` to the parent kill every
  worker before the signal's normal effect proceeds (so the final
  checkpoint commit in ``run_batch``'s ``finally`` still runs), and
  each worker independently exits when it notices it has been
  reparented, which covers even a ``SIGKILL``-ed parent.

The sequential contract is unchanged: each worker runs the same
:func:`~repro.runner.executor.execute_point` driver (retry budget,
degradation ladder, cooperative deadlines enforced in-worker), the
payload is pickled once up front so an unpicklable evaluator fails
fast, outcomes are reported in completion order for incremental
checkpointing, and the caller re-canonicalizes results, journal, and
checkpoint into batch point order — the persisted output of
``jobs=N`` is identical to ``jobs=1``.  Workers pre-pickle their
outcome and fall back to a structured error message when the result
cannot cross the process boundary, so a pickling failure surfaces as a
:class:`~repro.errors.RunnerError` instead of a hung pool.
"""

from __future__ import annotations

import dataclasses
import multiprocessing.context
import os
import pickle
import signal
import threading
import time
import traceback
from collections import deque
from contextlib import contextmanager
from multiprocessing import connection, get_context
from typing import (
    TYPE_CHECKING,
    Callable,
    Deque,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..errors import RunnerError
from ..faultkit.inject import fault_point, install as _install_faults
from ..obs import aggregate as _aggregate
from ..obs.metrics import gauge as _obs_gauge
from ..obs.metrics import inc as _obs_inc
from ..obs.metrics import metrics_enabled as _metrics_enabled
from .journal import STATUS_FAILED, AttemptRecord, PointRecord
from .policy import HANG_GRACE

if TYPE_CHECKING:
    from multiprocessing.process import BaseProcess

    from .executor import Attempt, PointSpec
    from .policy import RetryPolicy

#: An evaluate callable as run_batch accepts it.
EvaluateFn = Callable[["PointSpec", "Attempt"], object]

#: How often an idle worker wakes to check for tasks and for a
#: vanished parent (orphan self-cleanup).
_TASK_POLL_S = 0.25

#: How long to wait for workers to exit after the shutdown sentinel
#: before escalating to SIGKILL.
_JOIN_GRACE_S = 5.0

#: The recognized ``pool_mode`` values.
POOL_MODE_AUTO = "auto"
POOL_MODE_WARM = "warm"
POOL_MODE_SEQUENTIAL = "sequential"
POOL_MODES: Tuple[str, ...] = (
    POOL_MODE_AUTO,
    POOL_MODE_WARM,
    POOL_MODE_SEQUENTIAL,
)

#: Auto chunking aims for this many chunks per worker, so a slow point
#: cannot strand a long tail behind one worker...
_CHUNK_WAVES = 4
#: ...while chunks never exceed this many points, keeping resubmission
#: after a mid-chunk crash cheap.
_CHUNK_CAP = 32


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalize a ``--jobs`` request to a concrete worker count.

    ``None`` and ``1`` mean sequential; ``0`` means one worker per
    available CPU; anything negative is an error.
    """
    if jobs is None:
        return 1
    if jobs < 0:
        raise RunnerError(f"jobs must be >= 0 (0 = one per CPU), got {jobs!r}")
    if jobs == 0:
        return max(1, usable_cpus())
    return jobs


def usable_cpus() -> int:
    """CPUs this process may actually run on (affinity-aware).

    On cgroup-limited CI runners ``os.cpu_count()`` reports the host,
    not the container; the scheduler affinity mask is what bounds real
    parallelism, so the auto-fallback decision uses it when available.
    """
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except (AttributeError, OSError):
        return max(1, os.cpu_count() or 1)


def fork_context() -> "multiprocessing.context.BaseContext":
    """The multiprocessing context warm pools spawn workers from.

    Fork keeps warm precompute caches shared copy-on-write, so it is
    preferred wherever the platform offers it; elsewhere (no ``fork``
    start method) the platform default is used.  This batch pool is the
    only process pool in the package; the serving layer solves on
    threads (:mod:`repro.service.executor`).
    """
    try:
        return get_context("fork")
    except ValueError:
        return get_context()


def should_use_pool(pool_mode: str, jobs: int, n_points: int) -> bool:
    """Whether a worker pool can beat in-process execution.

    ``sequential`` never pools; ``warm`` always does (given work for
    more than one worker to share); ``auto`` additionally requires at
    least two usable CPUs — on a single core a pool only adds fork,
    IPC, and scheduling overhead, which is exactly the regression the
    never-slower-than-sequential gate guards against.
    """
    if pool_mode == POOL_MODE_SEQUENTIAL:
        return False
    if jobs <= 1 or n_points < 2:
        return False
    if pool_mode == POOL_MODE_WARM:
        return True
    return usable_cpus() >= 2


def resolve_chunk_size(n_points: int, workers: int) -> int:
    """Points per work-queue chunk.

    The batch is split into about :data:`_CHUNK_WAVES` chunks per
    worker (load balance against slow points), capped at
    :data:`_CHUNK_CAP` (cheap crash resubmission).
    """
    waves = max(1, workers) * _CHUNK_WAVES
    return max(1, min(-(-n_points // waves), _CHUNK_CAP))


def dumps_worker_payload(
    name: str,
    evaluate: EvaluateFn,
    policy: "RetryPolicy",
    points: Sequence["PointSpec"] = (),
) -> bytes:
    """Pickle ``(evaluate, policy, points)`` for shipment to workers.

    Raising here — before any process is forked — turns the classic
    late ``PicklingError`` inside the pool into an immediate, explained
    failure.  The returned bytes are exactly what every worker loads.
    """
    try:
        return pickle.dumps(
            (evaluate, policy, tuple(points)), protocol=pickle.HIGHEST_PROTOCOL
        )
    except Exception as exc:
        raise RunnerError(
            f"run {name!r}: evaluate/policy cannot be pickled for parallel "
            f"execution ({type(exc).__name__}: {exc}); jobs > 1 needs a "
            f"module-level function or a dataclass instance, not a closure "
            f"or lambda — or run with jobs=1"
        ) from exc


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------


def _encode_error(tag: str, index: int, submit: int, exc: BaseException) -> bytes:
    """Ship an exception as data; the original object when it survives
    a pickle round-trip, else its type name and message."""
    def _pack(exc_blob: Optional[bytes]) -> bytes:
        return pickle.dumps(
            (tag, index, submit, exc_blob, type(exc).__name__, str(exc)),
            protocol=pickle.HIGHEST_PROTOCOL,
        )

    try:
        exc_blob = pickle.dumps(exc, protocol=pickle.HIGHEST_PROTOCOL)
        pickle.loads(exc_blob)
    except Exception:
        return _pack(None)
    return _pack(exc_blob)


def _evaluate_task(
    point: "PointSpec",
    index: int,
    submit: int,
    evaluate: EvaluateFn,
    policy: "RetryPolicy",
) -> bytes:
    """Run one point in the worker; always returns an encodable message.

    Three shapes: ``("ok", index, outcome)`` on success (including
    exhausted-retries failure outcomes — those are data, not errors),
    ``("raise", ...)`` for exceptions escaping the execute driver
    (non-retryable evaluator errors keep their original type in the
    parent), ``("unserializable", ...)`` when the outcome itself cannot
    be pickled back.
    """
    from .executor import execute_point

    try:
        fault_point("parallel.worker.start", point=point.key, submit=submit)
        if not _aggregate.obs_enabled():
            outcome = execute_point(point, evaluate, policy)
        else:
            # Per-point delta shipping: reset the worker's registry,
            # evaluate, snapshot, and attach the delta so the parent can
            # merge it.  Counter totals then match a sequential run
            # regardless of how points were spread across workers.
            started = _aggregate.begin_point()
            outcome = execute_point(point, evaluate, policy)
            outcome = dataclasses.replace(
                outcome, obs=_aggregate.end_point(started)
            )
    except BaseException as exc:
        return _encode_error("raise", index, submit, exc)
    try:
        fault_point("parallel.result", point=point.key, submit=submit)
        return pickle.dumps(
            ("ok", index, outcome), protocol=pickle.HIGHEST_PROTOCOL
        )
    except BaseException as exc:
        return _encode_error("unserializable", index, submit, exc)


def _worker_main(
    payload: bytes,
    obs_flags: Tuple[bool, bool],
    fault_blob: Optional[bytes],
    task_r: connection.Connection,
    res_w: connection.Connection,
    parent_pid: int,
) -> None:
    """Process entry point: run the loop, then exit without teardown.

    ``os._exit`` skips interpreter shutdown on purpose, so a worker
    never runs cleanup it inherited from the parent by fork.
    """
    try:
        _worker_loop(payload, obs_flags, fault_blob, task_r, res_w, parent_pid)
    except BaseException:  # pragma: no cover - defensive trace, then death
        _obs_inc("runner.worker_crashes")
        traceback.print_exc()
    finally:
        os._exit(0)


def _worker_loop(
    payload: bytes,
    obs_flags: Tuple[bool, bool],
    fault_blob: Optional[bytes],
    task_r: connection.Connection,
    res_w: connection.Connection,
    parent_pid: int,
) -> None:
    """Worker loop: pull chunks, evaluate, stream pre-pickled results.

    Exits on the ``None`` shutdown sentinel, on a closed pipe, or when
    the parent vanishes (``getppid`` no longer matches — the orphan
    self-cleanup that survives even a SIGKILL-ed parent).  A payload
    that cannot be loaded poisons the worker: every received entry is
    answered with the stored error so the parent surfaces it instead
    of hanging.
    """
    if fault_blob is not None:
        _install_faults(pickle.loads(fault_blob))
    _aggregate.apply_obs_flags(obs_flags)
    points: Sequence = ()
    evaluate = policy = None
    init_error: Optional[BaseException] = None
    try:
        fault_point("pool.payload.load")
        evaluate, policy, points = pickle.loads(payload)
    except Exception as exc:
        # Poisoned, not dead: the error is recorded and replayed as the
        # answer to every received entry, so the parent surfaces it.
        _obs_inc("runner.worker_init_errors")
        init_error = exc
    while True:
        try:
            has_task = task_r.poll(_TASK_POLL_S)
        except (EOFError, OSError):
            return
        if not has_task:
            if os.getppid() != parent_pid:
                return
            continue
        try:
            task = task_r.recv()
        except (EOFError, OSError):
            return
        if task is None:
            return
        first_index, first_submit = task[0]
        fault_point(
            "pool.chunk.start",
            point=(points[first_index].key if init_error is None else None),
            submit=first_submit,
            size=len(task),
        )
        for index, submit in task:
            if init_error is not None:
                message = _encode_error("raise", index, submit, init_error)
            else:
                message = _evaluate_task(
                    points[index], index, submit, evaluate, policy
                )
            try:
                res_w.send_bytes(message)
            except (BrokenPipeError, OSError):
                return


# ---------------------------------------------------------------------------
# Parent side
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class _Chunk:
    """One dispatched work item: the entries still awaiting an answer."""

    entries: Dict[int, int]  # point index -> submission counter
    submitted: float
    deadline: Optional[float]


class _Worker:
    """One pool process plus its dedicated task/result pipes."""

    def __init__(
        self,
        process: "BaseProcess",
        task_w: connection.Connection,
        res_r: connection.Connection,
    ) -> None:
        self.process = process
        self.task_w = task_w
        self.res_r = res_r
        self.inflight: Optional[_Chunk] = None

    def close(self) -> None:
        for conn in (self.task_w, self.res_r):
            try:
                conn.close()
            except OSError:
                pass  # already closed by a prior cleanup path


def _task_budget(policy: "RetryPolicy") -> Optional[float]:
    """Watchdog wall-clock budget for one submission, or ``None``.

    Without a cooperative ``timeout_s`` there is no basis for calling a
    worker hung, so the watchdog is off.  The budget covers a single
    point; inside a chunk, every streamed result resets the clock.
    """
    if policy.timeout_s is None:
        return None
    return policy.timeout_s * policy.max_attempts * HANG_GRACE


@contextmanager
def _reap_on_signals(kill_all: Callable[[], None]) -> Iterator[None]:
    """While active, SIGTERM/SIGINT kill every worker before unwinding.

    The handler raises (``SystemExit(128 + signum)`` / a normal
    ``KeyboardInterrupt``) so the stack unwinds through ``run_batch``'s
    ``finally`` and the final checkpoint commit still happens —
    interrupted parallel runs stay resumable and leave no orphans.
    Installed only in the main thread; elsewhere the workers' reparent
    check is the (slower) backstop.
    """
    previous: Dict[int, object] = {}

    def _handler(signum: int, frame: object) -> None:
        kill_all()
        for sig, old in previous.items():
            signal.signal(sig, old)
        if signum == signal.SIGINT:
            raise KeyboardInterrupt
        raise SystemExit(128 + signum)

    if threading.current_thread() is threading.main_thread():
        for sig in (signal.SIGTERM, signal.SIGINT):
            previous[sig] = signal.getsignal(sig)
            signal.signal(sig, _handler)
    try:
        yield
    finally:
        for sig, old in previous.items():
            signal.signal(sig, old)


def execute_points_parallel(
    name: str,
    todo: Sequence[Tuple[int, object]],
    payload: bytes,
    jobs: int,
    policy: "RetryPolicy",
    on_outcome: Callable,
    stop_on_failure: bool,
    fault_blob: Optional[bytes] = None,
) -> List[object]:
    """Run the pending points through the pool, reporting as completed.

    ``todo`` pairs each point with its index into the payload's full
    point list (resume holes make the indices non-contiguous).
    ``on_outcome(point, outcome)`` is invoked in the parent for every
    finished point.  With ``stop_on_failure`` the first exhausted point
    stops dispatch of every not-yet-started chunk (strict mode);
    already-dispatched chunks are allowed to finish and are still
    reported, so everything computed gets checkpointed.  Worker
    exceptions (non-retryable evaluator errors) propagate with their
    original type; a worker dying or hanging resubmits every
    unanswered entry of its chunk until ``policy.max_attempts``
    submissions are spent, after which the point is reported as failed
    like any exhausted point.

    Returns the points that were **not** executed because the pool
    degraded (repeated worker deaths exhausted the replacement
    budget), in batch order; the caller runs them sequentially.
    Normally empty.
    """
    if not todo:
        return []
    by_index: Dict[int, object] = dict(todo)
    workers_n = min(jobs, len(todo))
    ctx = fork_context()
    budget_s = _task_budget(policy)
    death_budget = max(4, 2 * workers_n)
    chunk_n = resolve_chunk_size(len(todo), workers_n)
    indices = [index for index, _ in todo]
    pending: Deque[Tuple[Tuple[int, int], ...]] = deque(
        tuple((index, 0) for index in indices[lo:lo + chunk_n])
        for lo in range(0, len(indices), chunk_n)
    )
    if _metrics_enabled():
        _obs_gauge("parallel.chunk_size", float(chunk_n))
    pool: List[_Worker] = []
    deaths = 0
    stop_feeding = False
    degraded = False
    busy = 0.0
    pool_started = time.monotonic()
    obs_flags = _aggregate.obs_flags()

    def _spawn() -> _Worker:
        task_r, task_w = ctx.Pipe(duplex=False)
        res_r, res_w = ctx.Pipe(duplex=False)
        process = ctx.Process(
            target=_worker_main,
            args=(payload, obs_flags, fault_blob, task_r, res_w, os.getpid()),
            daemon=True,
        )
        process.start()
        task_r.close()
        res_w.close()
        return _Worker(process, task_w, res_r)

    def _kill_all() -> None:
        for worker in pool:
            try:
                worker.process.kill()
            except (OSError, ValueError):
                pass  # already gone; nothing left to reap

    def _handle_message(worker: _Worker, blob: bytes) -> None:
        nonlocal busy, stop_feeding
        chunk = worker.inflight
        message = pickle.loads(blob)
        tag, index = message[0], message[1]
        if chunk is not None:
            chunk.entries.pop(index, None)
            if not chunk.entries:
                worker.inflight = None
            elif budget_s is not None:
                # Streamed progress: the watchdog budget is per point.
                chunk.deadline = time.monotonic() + budget_s
        point = by_index.get(index)
        if tag == "ok":
            outcome = message[2]
            _aggregate.merge_point(
                getattr(outcome, "obs", None),
                submitted=chunk.submitted if chunk else None,
            )
            busy += _aggregate.busy_seconds(getattr(outcome, "obs", None))
            on_outcome(point, outcome)
            if stop_on_failure and not outcome.ok:
                stop_feeding = True
            return
        key = point.key if point is not None else f"#{index}"
        _submit, exc_blob, exc_type, exc_message = message[2:6]
        if tag == "raise":
            if exc_blob is not None:
                raise pickle.loads(exc_blob)
            raise RunnerError(
                f"run {name!r}: worker failed on point {key!r} "
                f"({exc_type}: {exc_message})"
            )
        raise RunnerError(
            f"run {name!r}: worker could not serialize the result for "
            f"point {key!r} ({exc_type}: {exc_message}); completed points "
            f"are checkpointed — re-run with resume to continue"
        )

    def _handle_death(worker: _Worker, reason: str) -> None:
        nonlocal deaths, degraded, stop_feeding
        if worker not in pool:
            return
        pool.remove(worker)
        worker.close()
        worker.process.join(timeout=1.0)
        deaths += 1
        _obs_inc("runner.worker_deaths")
        chunk = worker.inflight
        worker.inflight = None
        if chunk is not None and chunk.entries:
            survivors: List[Tuple[int, int]] = []
            for index, submit in chunk.entries.items():
                point = by_index[index]
                if submit + 1 < policy.max_attempts:
                    survivors.append((index, submit + 1))
                    _obs_inc("runner.resubmissions")
                    continue
                _obs_inc("runner.points_failed")
                record = PointRecord(
                    key=point.key,
                    value=point.journal_value(),
                    status=STATUS_FAILED,
                    attempts=(
                        AttemptRecord(
                            index=submit,
                            error_type="WorkerCrash",
                            error_message=(
                                f"worker process died ({reason}) while "
                                f"evaluating {point.key!r}; submission "
                                f"{submit + 1}/{policy.max_attempts}"
                            ),
                        ),
                    ),
                )
                from .executor import PointOutcome

                on_outcome(point, PointOutcome(record=record))
                if stop_on_failure:
                    stop_feeding = True
            if survivors:
                pending.appendleft(tuple(survivors))
        if deaths > death_budget and not degraded:
            degraded = True
            _obs_inc("runner.pool_degradations")

    def _reap_hang(worker: _Worker) -> None:
        # Last chance: a result racing the deadline wins.
        if worker.res_r.poll(0):
            try:
                _handle_message(worker, worker.res_r.recv_bytes())
                return
            except (EOFError, OSError):
                pass  # pipe died under us; fall through to the reap
        budget = f"{budget_s:.1f}s" if budget_s is not None else "?"
        try:
            worker.process.kill()
        except (OSError, ValueError):
            pass  # exited on its own in the race window
        _obs_inc("runner.hangs_reaped")
        _handle_death(worker, f"hung: exceeded the watchdog budget of {budget}")

    try:
        with _reap_on_signals(_kill_all):
            while True:
                # Keep the pool staffed while there is work to dispatch.
                if not stop_feeding and not degraded:
                    busy_n = sum(1 for w in pool if w.inflight is not None)
                    while len(pool) < min(workers_n, busy_n + len(pending)):
                        pool.append(_spawn())
                # Feed every idle worker (unless dispatch is stopped).
                if not stop_feeding and not degraded:
                    for worker in pool:
                        if worker.inflight is not None or not pending:
                            continue
                        chunk_entries = pending.popleft()
                        first_index, first_submit = chunk_entries[0]
                        fault_point(
                            "pool.chunk.dispatch",
                            point=by_index[first_index].key,
                            submit=first_submit,
                            size=len(chunk_entries),
                        )
                        now = time.monotonic()
                        try:
                            worker.task_w.send(chunk_entries)
                        except (BrokenPipeError, OSError):
                            # Death races the dispatch; requeue and let
                            # the sentinel path account for the worker.
                            pending.appendleft(chunk_entries)
                            continue
                        _obs_inc("parallel.chunks_dispatched")
                        worker.inflight = _Chunk(
                            entries=dict(chunk_entries),
                            submitted=now,
                            deadline=None if budget_s is None else now + budget_s,
                        )
                inflight = [w for w in pool if w.inflight is not None]
                if not inflight and (not pending or stop_feeding or degraded):
                    break
                if not pool:
                    # Every worker is gone and none may be respawned:
                    # hand the rest back for sequential execution.
                    if not degraded:
                        degraded = True
                        _obs_inc("runner.pool_degradations")
                    continue
                timeout: Optional[float] = None
                if budget_s is not None and inflight:
                    now = time.monotonic()
                    timeout = max(
                        0.0,
                        min(w.inflight.deadline for w in inflight) - now,
                    )
                by_result = {w.res_r: w for w in pool}
                by_sentinel = {w.process.sentinel: w for w in pool}
                ready = connection.wait(
                    list(by_result) + list(by_sentinel), timeout
                )
                # Results first: a worker that answered and then died
                # must deliver its answers before the death is handled.
                for obj in ready:
                    worker = by_result.get(obj)
                    if worker is None or worker not in pool:
                        continue
                    while worker in pool and worker.res_r.poll(0):
                        try:
                            blob = worker.res_r.recv_bytes()
                        except (EOFError, OSError):
                            break  # dead; its sentinel is in this batch
                        _handle_message(worker, blob)
                for obj in ready:
                    worker = by_sentinel.get(obj)
                    if worker is None or worker not in pool:
                        continue
                    while worker.res_r.poll(0):
                        # Exited right after answering; drain first.
                        try:
                            _handle_message(worker, worker.res_r.recv_bytes())
                        except (EOFError, OSError):
                            break  # nothing to drain after all
                    _handle_death(worker, "crashed")
                if budget_s is not None:
                    now = time.monotonic()
                    for worker in list(pool):
                        chunk = worker.inflight
                        if (
                            chunk is not None
                            and chunk.deadline is not None
                            and now >= chunk.deadline
                        ):
                            _reap_hang(worker)
            # Graceful shutdown: sentinel, short join, then escalate.
            for worker in pool:
                try:
                    worker.task_w.send(None)
                except (BrokenPipeError, OSError):
                    pass  # worker already gone; join below reaps it
            deadline = time.monotonic() + _JOIN_GRACE_S
            for worker in pool:
                worker.process.join(timeout=max(0.0, deadline - time.monotonic()))
                if worker.process.is_alive():
                    worker.process.kill()
                    worker.process.join(timeout=1.0)
        if _metrics_enabled():
            wall = max(1e-9, time.monotonic() - pool_started)
            _obs_gauge("parallel.worker_utilization", busy / (workers_n * wall))
    finally:
        for worker in pool:
            if worker.process.is_alive():
                worker.process.kill()
                worker.process.join(timeout=1.0)
            worker.close()
    if degraded and pending and not stop_feeding:
        leftover = {index for entries in pending for index, _ in entries}
        return [point for index, point in todo if index in leftover]
    return []
