"""Fault-tolerant run harness for multi-point evaluations.

Every batched evaluation in the library — Table 4 sweeps
(:func:`repro.analysis.sweep.run_sweep`), corner sign-off
(:func:`repro.analysis.corners.rank_across_corners`), and architecture
search (:mod:`repro.optimize.search`) — routes through
:func:`run_batch`, which adds per-point fault isolation,
checkpoint/resume, deterministic retry/degradation policies, and
optional warm-pool parallelism (``jobs=N`` with a payload pickled once
per batch and chunked dispatch; results come back in batch point order
regardless of completion order) on top of any ``(point) -> result``
evaluation.  ``pool_mode`` ("auto"/"warm"/"sequential") decides whether
to pool; the "auto" default falls back to in-process execution
whenever a pool cannot beat sequential.

The execution layer is hardened against real process failures — and
chaos-tested against :mod:`repro.faultkit` schedules: dead pool
workers are detected and their in-flight points resubmitted (bounded
by the :class:`RetryPolicy`), hung workers are reaped by a watchdog,
checkpoints carry integrity checksums with a rotated ``.prev``
generation to fall back on, and a pool that keeps dying degrades
gracefully to sequential execution.  Every recovery action is counted
through :mod:`repro.obs` (``runner.worker_deaths``,
``runner.resubmissions``, ``runner.hangs_reaped``,
``checkpoint.integrity_failures``, ``fault.injected.*``).

Quickstart::

    from repro.runner import PointSpec, RetryPolicy, run_batch

    outcome = run_batch(
        "my-study",
        [PointSpec(key=f"x={x}", value=x) for x in xs],
        lambda point, attempt: expensive(point.value),
        policy=RetryPolicy(max_attempts=3, timeout_s=60.0),
        keep_going=True,
        checkpoint_path="study.ckpt.json",
    )
    outcome.results, outcome.failures, print(outcome.journal.summary())
"""

from .checkpoint import CHECKPOINT_FORMAT, Checkpoint, load_checkpoint, save_checkpoint
from .executor import (
    Attempt,
    BatchOutcome,
    PointOutcome,
    PointSpec,
    execute_point,
    run_batch,
)
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
    POOL_MODES,
    resolve_chunk_size,
    resolve_jobs,
    should_use_pool,
    usable_cpus,
)
from .policy import RetryPolicy, scaled_bunch_size

__all__ = [
    "Attempt",
    "AttemptRecord",
    "BatchOutcome",
    "CHECKPOINT_FORMAT",
    "Checkpoint",
    "POOL_MODES",
    "PointFailure",
    "PointOutcome",
    "PointRecord",
    "PointSpec",
    "RetryPolicy",
    "RunJournal",
    "STATUS_CACHED",
    "STATUS_COMPLETED",
    "STATUS_FAILED",
    "execute_point",
    "load_checkpoint",
    "resolve_chunk_size",
    "resolve_jobs",
    "run_batch",
    "save_checkpoint",
    "scaled_bunch_size",
    "should_use_pool",
    "usable_cpus",
]
