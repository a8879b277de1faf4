"""Retry policies: how hard the executor tries before declaring failure.

A :class:`RetryPolicy` is deterministic — retries of a failed point
re-run the *same* computation, optionally degraded along a fixed
ladder (coarser bunch size), so a retried batch is exactly
reproducible and every accuracy trade is recorded in the run journal.
A retry starts as soon as the previous attempt fails.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Tuple, Type

from ..errors import ReproError, RunnerError


@dataclass(frozen=True)
class RetryPolicy:
    """Attempt budget and deterministic degradation ladder for one point.

    Attributes
    ----------
    max_attempts:
        Total tries per point (1 = no retries).  Also bounds how often
        the parallel backend resubmits a point whose worker process
        died mid-evaluation.
    timeout_s:
        Per-attempt wall-clock budget in seconds; enforced
        cooperatively via the DP solver's deadline hook
        (:func:`repro.core.dp.check_deadline`).  ``None`` disables it.
    bunch_scale:
        Degradation ladder: attempt ``i`` multiplies the evaluation's
        bunch size by ``bunch_scale ** i``, trading rank accuracy (the
        error bound grows with the bunch) for speed.  1.0 means retries
        repeat the identical computation — only useful together with
        ``timeout_s`` relief through a lighter machine moment, so the
        default ladder coarsens by 2x per retry.
    retry_on:
        Exception classes that count as retryable.  Anything else
        (``TypeError`` and friends) propagates immediately — a
        programming error should never be papered over by a retry.
    hang_grace:
        Grace multiplier for the parallel backend's hang watchdog: a
        worker is presumed hung — and reaped — once it exceeds
        ``hang_grace ×`` its total cooperative budget
        (``timeout_s * max_attempts``).  Only meaningful with
        ``timeout_s`` set.
    """

    max_attempts: int = 1
    timeout_s: Optional[float] = None
    bunch_scale: float = 2.0
    retry_on: Tuple[Type[BaseException], ...] = field(default=(ReproError,))
    hang_grace: float = 4.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise RunnerError(
                f"RetryPolicy.max_attempts must be >= 1, got {self.max_attempts!r}"
            )
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise RunnerError(
                f"RetryPolicy.timeout_s must be positive, got {self.timeout_s!r}"
            )
        if self.bunch_scale < 1.0:
            raise RunnerError(
                f"RetryPolicy.bunch_scale must be >= 1.0 (degradations only "
                f"coarsen), got {self.bunch_scale!r}"
            )
        if not self.retry_on:
            raise RunnerError("RetryPolicy.retry_on must name at least one class")
        if self.hang_grace < 1.0:
            raise RunnerError(
                f"RetryPolicy.hang_grace must be >= 1.0, got {self.hang_grace!r}"
            )

    def degradation(self, attempt: int) -> Dict[str, float]:
        """Fallback knobs for the given 0-based attempt.

        The first attempt always runs undegraded; retries walk the
        ladder deterministically.
        """
        if attempt <= 0 or self.bunch_scale == 1.0:
            return {}
        return {"bunch_scale": self.bunch_scale ** attempt}

    def deadline(self, now: Optional[float] = None) -> Optional[float]:
        """Absolute ``time.monotonic()`` deadline for an attempt starting now."""
        if self.timeout_s is None:
            return None
        return (time.monotonic() if now is None else now) + self.timeout_s

    def is_retryable(self, exc: BaseException) -> bool:
        """Whether the exception counts against the attempt budget."""
        return isinstance(exc, self.retry_on)


def scaled_bunch_size(
    bunch_size: Optional[int], degradation: Mapping[str, float]
) -> Optional[int]:
    """Apply a policy degradation to an evaluation's bunch size.

    ``None`` (exact, unbunched) stays exact — there is no coarsening to
    relax — and any other knob in the mapping is ignored here, so
    evaluators can opt into exactly the knobs they understand.
    """
    scale = degradation.get("bunch_scale")
    if bunch_size is None or not scale:
        return bunch_size
    return max(1, int(round(bunch_size * scale)))
