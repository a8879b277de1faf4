"""Retry policies: how hard the executor tries before declaring failure.

A :class:`RetryPolicy` is deterministic — retries of a failed point
re-run the *same* computation, optionally degraded along a fixed
ladder (coarser bunch size), so a retried batch is exactly
reproducible and every accuracy trade is recorded in the run journal.
A retry starts as soon as the previous attempt fails.  The ladder's
step (:data:`BUNCH_SCALE`), the retryable classes (every
:class:`~repro.errors.ReproError`) and the hang watchdog's grace
(:data:`HANG_GRACE`) are fixed; only the attempt count and the
per-attempt timeout are settable.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Mapping, Optional

from ..errors import ReproError, RunnerError

#: Degradation ladder: attempt ``i`` multiplies the evaluation's bunch
#: size by ``BUNCH_SCALE ** i``, trading rank accuracy (the error bound
#: grows with the bunch) for speed.
BUNCH_SCALE = 2.0

#: The parallel backend presumes a worker hung, and reaps it, once it
#: exceeds ``HANG_GRACE ×`` its total cooperative budget
#: (``timeout_s * max_attempts``).
HANG_GRACE = 4.0


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
    """

    max_attempts: int = 1
    timeout_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise RunnerError(
                f"RetryPolicy.max_attempts must be >= 1, got {self.max_attempts!r}"
            )
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise RunnerError(
                f"RetryPolicy.timeout_s must be positive, got {self.timeout_s!r}"
            )

    def degradation(self, attempt: int) -> Dict[str, float]:
        """Fallback knobs for the given 0-based attempt.

        The first attempt always runs undegraded; retries walk the
        ladder deterministically.
        """
        if attempt <= 0:
            return {}
        return {"bunch_scale": BUNCH_SCALE ** attempt}

    def deadline(self, now: Optional[float] = None) -> Optional[float]:
        """Absolute ``time.monotonic()`` deadline for an attempt starting now."""
        if self.timeout_s is None:
            return None
        return (time.monotonic() if now is None else now) + self.timeout_s

    def is_retryable(self, exc: BaseException) -> bool:
        """Whether the exception counts against the attempt budget.

        Every :class:`~repro.errors.ReproError` does; anything else
        (``TypeError`` and friends) propagates immediately — a
        programming error should never be papered over by a retry.
        """
        return isinstance(exc, ReproError)


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
