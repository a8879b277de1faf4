"""Fault-tolerant batch executor.

:func:`run_batch` is the single entry point every multi-point
evaluation (sweeps, corner sign-off, architecture search) routes
through.  It provides the three guarantees a long DP-heavy batch job
needs:

* **per-point isolation** — a failing point becomes a structured
  :class:`~repro.runner.journal.PointFailure` instead of aborting the
  other points (``keep_going=True``), or aborts *after* journaling and
  checkpointing everything completed so far (strict mode);
* **checkpoint/resume** — completed points are journaled to an
  atomically-rewritten checkpoint file after every point, and
  ``resume=True`` recomputes only the points the checkpoint is
  missing;
* **retry with deterministic degradation** — a
  :class:`~repro.runner.policy.RetryPolicy` bounds attempts and
  per-attempt wall-clock, and walks a deterministic fallback ladder
  (coarser bunch size), with every degradation recorded in the
  :class:`~repro.runner.journal.RunJournal`.

``jobs > 1`` dispatches points to a warm worker pool
(:mod:`repro.runner.parallel`) with all three guarantees intact, and
results, journal, and checkpoint re-canonicalized into batch point
order — the persisted output of a parallel run is identical to the
sequential one (timing fields aside).  ``pool_mode`` controls the
dispatch decision: ``"auto"`` (default) falls back to in-process
execution whenever a pool cannot beat sequential (one usable CPU,
fewer than two pending points), ``"warm"`` forces the pool, and
``"sequential"`` disables it while still requiring a picklable
evaluator, so runs stay portable across machines.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable, Dict, Mapping, Optional, Sequence, Tuple, Union

from ..errors import RunnerError
from ..faultkit.inject import activated as _faults_activated
from ..faultkit.inject import fault_point
from ..faultkit.schedule import FaultSchedule, schedule_from_env
from ..obs.metrics import inc as _obs_inc
from ..obs.metrics import observe as _obs_observe
from ..obs.trace import span as _span
from .checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from .journal import (
    STATUS_CACHED,
    STATUS_COMPLETED,
    STATUS_FAILED,
    AttemptRecord,
    PointFailure,
    PointRecord,
    RunJournal,
)
from .parallel import (
    POOL_MODE_AUTO,
    POOL_MODES,
    dumps_worker_payload,
    execute_points_parallel,
    resolve_jobs,
    should_use_pool,
)
from .policy import RetryPolicy

PathLike = Union[str, Path]


@dataclass(frozen=True)
class PointSpec:
    """One point of a batch.

    Attributes
    ----------
    key:
        Stable identity used for checkpointing and resume; must be
        unique within the batch and deterministic across runs.
    value:
        The payload handed to the evaluate callable (knob value,
        corner, candidate spec, ...).
    label:
        Optional display name; defaults to the key.
    """

    key: str
    value: object
    label: str = ""

    def display(self) -> str:
        """Label if set, else the key."""
        return self.label or self.key

    def journal_value(self) -> object:
        """The value as journaled: JSON primitives verbatim, else the label.

        Journals travel inside checkpoint files, so rich point values
        (a ``Corner``, an ``ArchitectureSpec``) are recorded by display
        name rather than serialized.
        """
        if isinstance(self.value, (str, int, float, bool)) or self.value is None:
            return self.value
        return self.display()


@dataclass(frozen=True)
class Attempt:
    """Context handed to the evaluate callable for one try.

    Attributes
    ----------
    index:
        0-based attempt number.
    deadline:
        Absolute ``time.monotonic()`` instant the attempt must respect
        (pass it to :func:`repro.core.rank.compute_rank`), or ``None``.
    degradation:
        Fallback knobs from the policy's ladder; evaluators apply the
        ones they understand (see
        :func:`repro.runner.policy.scaled_bunch_size`).
    """

    index: int
    deadline: Optional[float] = None
    degradation: Mapping[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class PointOutcome:
    """Result of driving one point through its attempt budget.

    ``obs`` is the worker-side observability payload (metrics snapshot,
    trace events, start/end stamps) attached by the parallel backend so
    the parent can merge it; ``None`` for in-process execution, where
    metrics land in the parent registry directly.
    """

    record: PointRecord
    result: object = None
    obs: Optional[dict] = field(default=None, compare=False)

    @property
    def ok(self) -> bool:
        """Whether the point produced a result."""
        return self.record.status in (STATUS_COMPLETED, STATUS_CACHED)


@dataclass
class BatchOutcome:
    """What a batch run produced.

    Attributes
    ----------
    results:
        ``point key -> result`` for every point that has one (fresh or
        resumed from checkpoint).
    failures:
        Points that exhausted every attempt, in run order.
    journal:
        Full per-point, per-attempt record of the run.
    """

    results: Dict[str, object]
    failures: Tuple[PointFailure, ...]
    journal: RunJournal

    @property
    def ok(self) -> bool:
        """True iff every point has a result."""
        return not self.failures

    @property
    def partial(self) -> bool:
        """True iff some — but not all — points have results."""
        return bool(self.failures) and bool(self.results)


def execute_point(
    point: PointSpec,
    evaluate: Callable[[PointSpec, Attempt], object],
    policy: RetryPolicy,
) -> PointOutcome:
    """Drive one point through the policy's attempt budget.

    Retryable exceptions (every ``ReproError``) consume attempts;
    anything else — a programming error — propagates immediately.
    Never raises on exhaustion: the failed :class:`PointOutcome` carries
    the full attempt history and the caller chooses strict vs
    keep-going semantics.
    """
    attempts = []
    point_started = time.monotonic()
    for index in range(policy.max_attempts):
        attempt = Attempt(
            index=index,
            deadline=policy.deadline(),
            degradation=policy.degradation(index),
        )
        _obs_inc("runner.attempts")
        if index:
            _obs_inc("runner.retries")
        started = time.monotonic()
        with _span("point_attempt", point=point.key, attempt=index):
            try:
                fault_point(
                    "executor.attempt.start", point=point.key, attempt=index
                )
                result = evaluate(point, attempt)
                fault_point(
                    "executor.attempt.end", point=point.key, attempt=index
                )
            except Exception as exc:
                attempts.append(
                    AttemptRecord(
                        index=index,
                        error_type=type(exc).__name__,
                        error_message=str(exc),
                        wall_time_s=time.monotonic() - started,
                        degradation=attempt.degradation,
                    )
                )
                if not policy.is_retryable(exc):
                    raise
                continue
        attempts.append(
            AttemptRecord(
                index=index,
                wall_time_s=time.monotonic() - started,
                degradation=attempt.degradation,
            )
        )
        _obs_inc("runner.points_completed")
        if attempt.degradation:
            _obs_inc("runner.degraded_points")
        _obs_observe("runner.point_wall_s", time.monotonic() - point_started)
        return PointOutcome(
            record=PointRecord(
                key=point.key,
                value=point.journal_value(),
                status=STATUS_COMPLETED,
                attempts=tuple(attempts),
            ),
            result=result,
        )
    _obs_inc("runner.points_failed")
    _obs_observe("runner.point_wall_s", time.monotonic() - point_started)
    return PointOutcome(
        record=PointRecord(
            key=point.key,
            value=point.journal_value(),
            status=STATUS_FAILED,
            attempts=tuple(attempts),
        )
    )


def _commit(
    checkpoint: Checkpoint, path: Optional[PathLike], order: Sequence[str]
) -> None:
    """Write the checkpoint now (no-op without a checkpoint path).

    Called once per completed point.  Before every write the
    checkpoint's point dict is reordered into batch point ``order``, so
    the file on disk does not depend on completion order — a parallel
    run persists byte-for-byte what the sequential run would.
    """
    if path is None:
        return
    points = checkpoint.points
    ordered = {k: points[k] for k in order if k in points}
    for key, value in points.items():  # stale resume keys, kept last
        if key not in ordered:
            ordered[key] = value
    checkpoint.points = ordered
    with _span("checkpoint_commit", points=len(ordered)):
        save_checkpoint(checkpoint, path)
    _obs_inc("runner.checkpoint_commits")


def _strict_failure(
    name: str,
    point: PointSpec,
    record: PointRecord,
    checkpoint_path: Optional[PathLike],
) -> RunnerError:
    """The strict-mode abort error (identical for every backend)."""
    last = record.attempts[-1] if record.attempts else None
    detail = (
        f": last attempt raised {last.error_type}: {last.error_message}"
        if last
        else ""
    )
    hint = (
        f" (completed points are checkpointed in {checkpoint_path}; "
        f"re-run with resume to continue)"
        if checkpoint_path is not None
        else ""
    )
    return RunnerError(
        f"run {name!r}: point {point.display()!r} failed after "
        f"{len(record.attempts)} attempt(s){detail}{hint}"
    )


def run_batch(
    name: str,
    points: Sequence[PointSpec],
    evaluate: Callable[[PointSpec, Attempt], object],
    policy: Optional[RetryPolicy] = None,
    keep_going: bool = False,
    checkpoint_path: Optional[PathLike] = None,
    resume: bool = False,
    serialize: Optional[Callable[[object], object]] = None,
    deserialize: Optional[Callable[[object], object]] = None,
    jobs: int = 1,
    pool_mode: str = POOL_MODE_AUTO,
    fault_schedule: Optional[FaultSchedule] = None,
) -> BatchOutcome:
    """Evaluate every point with isolation, checkpointing, and retries.

    Parameters
    ----------
    name:
        Run identity; a checkpoint written by a differently-named run
        refuses to resume into this one.
    points:
        The batch, in deterministic order; keys must be unique.
    evaluate:
        ``(point, attempt) -> result``.  Honour ``attempt.deadline``
        and ``attempt.degradation`` to get timeouts and the fallback
        ladder; a plain callable that ignores them still gets isolation
        and checkpointing.  With ``jobs > 1`` it must be picklable (a
        module-level function or dataclass instance, not a closure).
    policy:
        Attempt budget / timeout / degradation ladder (default: one
        attempt, no timeout).
    keep_going:
        True: record failures and continue to the next point.  False
        (strict): checkpoint what is done, then raise
        :class:`~repro.errors.RunnerError` on the first exhausted point
        (in batch order; a parallel run cancels not-yet-started points
        but still checkpoints everything that finished).
    checkpoint_path:
        When given, the checkpoint is (re)written atomically after
        every completed point — an interrupted run loses at most the
        in-flight point.
    resume:
        Load ``checkpoint_path`` and skip every point it already has
        (recorded as ``cached`` in the journal).
    serialize / deserialize:
        Result <-> JSON-payload hooks for checkpointing (identity by
        default, i.e. results must already be JSON-compatible).
    jobs:
        Worker processes: 1 (default) runs in-process, ``N > 1`` runs a
        warm worker pool, 0 means one worker per CPU.  Results,
        journal, and checkpoint come back in batch point order
        regardless.
    pool_mode:
        ``"auto"`` (default) uses the pool only when it can beat
        sequential — at least two pending points and two usable CPUs;
        ``"warm"`` forces the pool whenever ``jobs > 1``;
        ``"sequential"`` never pools.  Any mode with ``jobs > 1``
        still requires a picklable evaluator, so a batch that works on
        a laptop also works on a many-core runner.
    fault_schedule:
        Deterministic chaos testing: a
        :class:`~repro.faultkit.FaultSchedule` armed for the duration
        of the batch (in the parent and in every pool worker).  When
        ``None``, the ``REPRO_FAULT_SCHEDULE`` environment variable is
        consulted; unset means injection stays a single disabled-guard
        check on the hot path.

    Returns
    -------
    BatchOutcome
    """
    policy = policy if policy is not None else RetryPolicy()
    serialize = serialize if serialize is not None else (lambda result: result)
    deserialize = deserialize if deserialize is not None else (lambda payload: payload)
    jobs = resolve_jobs(jobs)
    if pool_mode not in POOL_MODES:
        raise RunnerError(
            f"run {name!r}: pool_mode must be one of {POOL_MODES}, "
            f"got {pool_mode!r}"
        )

    seen = set()
    for point in points:
        if point.key in seen:
            raise RunnerError(
                f"run {name!r}: duplicate point key {point.key!r}; "
                "checkpoint keys must be unique"
            )
        seen.add(point.key)
    if resume and checkpoint_path is None:
        raise RunnerError(f"run {name!r}: resume requested without a checkpoint path")
    if fault_schedule is None:
        fault_schedule = schedule_from_env()
    payload = None
    if jobs > 1:
        # Fail fast (and pickle exactly once) before any worker forks —
        # in *every* pool mode, so an evaluator that falls back to
        # sequential here still fails loudly on the many-core machine
        # where the pool would actually run.
        payload = dumps_worker_payload(name, evaluate, policy, points)

    with _faults_activated(fault_schedule):
        cached: Dict[str, object] = {}
        if resume:
            cached = dict(load_checkpoint(checkpoint_path, expect_run=name).points)
        pending_n = sum(1 for point in points if point.key not in cached)
        use_pool = payload is not None and should_use_pool(
            pool_mode, jobs, pending_n
        )
        if payload is not None and not use_pool:
            _obs_inc("parallel.pool_fallbacks")

        journal = RunJournal(name=name)
        checkpoint = Checkpoint(run=name, points=dict(cached), journal=journal)
        results: Dict[str, object] = {}
        commit = partial(
            _commit, checkpoint, checkpoint_path, [point.key for point in points]
        )

        # Write the identity file up front so even a run killed before
        # its first completed point leaves a resumable (empty) checkpoint.
        commit()

        try:
            with _span("run_batch", run=name, points=len(points), jobs=jobs):
                if not use_pool:
                    _run_sequential(
                        name,
                        points,
                        evaluate,
                        policy,
                        keep_going,
                        checkpoint_path,
                        cached,
                        deserialize,
                        serialize,
                        journal,
                        checkpoint,
                        results,
                        commit,
                    )
                else:
                    _run_parallel(
                        name,
                        points,
                        evaluate,
                        payload,
                        jobs,
                        policy,
                        keep_going,
                        checkpoint_path,
                        cached,
                        deserialize,
                        serialize,
                        journal,
                        checkpoint,
                        results,
                        commit,
                        fault_schedule,
                    )
        finally:
            # Final write on every exit path: normal return, strict-mode
            # abort, or a propagating evaluator/worker error.
            commit()
    return BatchOutcome(
        results=results, failures=journal.failures(), journal=journal
    )


def _cached_record(point: PointSpec) -> PointRecord:
    _obs_inc("runner.points_cached")
    return PointRecord(
        key=point.key, value=point.journal_value(), status=STATUS_CACHED
    )


def _run_sequential(
    name: str,
    points: Sequence[PointSpec],
    evaluate: Callable[[PointSpec, Attempt], object],
    policy: RetryPolicy,
    keep_going: bool,
    checkpoint_path: Optional[PathLike],
    cached: Dict[str, object],
    deserialize: Callable[[object], object],
    serialize: Callable[[object], object],
    journal: RunJournal,
    checkpoint: Checkpoint,
    results: Dict[str, object],
    commit: Callable[[], None],
) -> None:
    for point in points:
        if point.key in cached:
            results[point.key] = deserialize(cached[point.key])
            journal.add(_cached_record(point))
            continue
        outcome = execute_point(point, evaluate, policy)
        journal.add(outcome.record)
        if outcome.ok:
            results[point.key] = outcome.result
            checkpoint.points[point.key] = serialize(outcome.result)
            commit()
            continue
        if not keep_going:
            raise _strict_failure(name, point, outcome.record, checkpoint_path)


def _run_parallel(
    name: str,
    points: Sequence[PointSpec],
    evaluate: Callable[[PointSpec, Attempt], object],
    payload: bytes,
    jobs: int,
    policy: RetryPolicy,
    keep_going: bool,
    checkpoint_path: Optional[PathLike],
    cached: Dict[str, object],
    deserialize: Callable[[object], object],
    serialize: Callable[[object], object],
    journal: RunJournal,
    checkpoint: Checkpoint,
    results: Dict[str, object],
    commit: Callable[[], None],
    fault_schedule: Optional[FaultSchedule] = None,
) -> None:
    outcomes: Dict[str, PointOutcome] = {}

    def on_outcome(point: PointSpec, outcome: PointOutcome) -> None:
        # Completion order: journal provisionally (so mid-run
        # checkpoints stay informative) and persist finished results.
        outcomes[point.key] = outcome
        journal.add(outcome.record)
        if outcome.ok:
            checkpoint.points[point.key] = serialize(outcome.result)
            commit()

    import pickle as _pickle

    remaining = execute_points_parallel(
        name,
        [
            (index, point)
            for index, point in enumerate(points)
            if point.key not in cached
        ],
        payload,
        jobs,
        policy,
        on_outcome,
        stop_on_failure=not keep_going,
        fault_blob=(
            _pickle.dumps(fault_schedule, protocol=_pickle.HIGHEST_PROTOCOL)
            if fault_schedule
            else None
        ),
    )

    # Graceful degradation: the pool died repeatedly and handed back
    # the undispatched points — finish them sequentially in-process so
    # a flaky machine degrades to ``jobs=1`` instead of failing.
    for point in remaining:
        outcome = execute_point(point, evaluate, policy)
        on_outcome(point, outcome)
        if not outcome.ok and not keep_going:
            break

    # Deterministic merge: rebuild journal and results in batch point
    # order so the outcome is independent of worker scheduling.
    journal.records.clear()
    first_failure: Optional[Tuple[PointSpec, PointRecord]] = None
    for point in points:
        if point.key in cached:
            results[point.key] = deserialize(cached[point.key])
            journal.add(_cached_record(point))
            continue
        outcome = outcomes.get(point.key)
        if outcome is None:
            continue  # cancelled after a strict-mode failure
        journal.add(outcome.record)
        if outcome.ok:
            results[point.key] = outcome.result
        elif first_failure is None:
            first_failure = (point, outcome.record)
    if first_failure is not None and not keep_going:
        point, record = first_failure
        raise _strict_failure(name, point, record, checkpoint_path)
