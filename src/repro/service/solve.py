"""Worker-side job execution for the serving layer.

The entry points run on the solve executor's threads, and every job
shares one lock-wrapped :class:`~repro.api.PrecomputeCache`, so
repeated near-identical requests stay table-warm.

Jobs take the *canonical wire dict* of a request — tiny and JSON-safe —
and return the plain-JSON response payload.  All validation already
happened on the event loop when the request was canonicalized;
reconstruction via ``from_wire`` here is a cheap re-check, not a trust
boundary.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, Mapping, Optional, Tuple

from .. import api
from ..errors import ReproError
from ..faultkit import fault_point
from ..schema import (
    CornersRequest,
    OptimizeRequest,
    RankRequest,
    RankResponse,
    SweepRequest,
)

__all__ = [
    "configure",
    "precompute_stats",
    "solve_rank_job",
    "solve_corner_job",
    "solve_optimize_job",
]


class _LockedPrecomputeCache(api.PrecomputeCache):
    """A :class:`~repro.api.PrecomputeCache` safe for thread workers.

    The base cache is a plain ``OrderedDict`` LRU with no locking (its
    documented contract).  The executor's threads share one instance,
    so the mutation points are serialized here; a concurrent miss on
    the same key computes twice and puts twice, which is wasteful but
    idempotent — correctness never depends on single-flight at this
    layer.
    """

    def __init__(self, max_entries: int) -> None:
        super().__init__(max_entries=max_entries)
        self._lock = threading.RLock()

    def _get(self, stage: str, key: Tuple[Any, ...]) -> Any:
        with self._lock:
            return super()._get(stage, key)

    def _put(self, key: Tuple[Any, ...], entry: object) -> None:
        with self._lock:
            super()._put(key, entry)

    def clear(self) -> None:
        with self._lock:
            super().clear()

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            return super().stats()


#: Process-wide precompute cache (coarsened WLDs + assignment tables),
#: shared by every solve thread.  Created by :func:`configure`.
_CACHE: Optional[api.PrecomputeCache] = None


def configure(precompute_entries: int, warm: Optional[Mapping[str, object]] = None) -> None:
    """Initialize this process's solve state.

    Runs once, before the solve threads start.  ``warm``, when given, is
    the canonical dict of a representative request whose tables are
    solved immediately so the very first real request hits a warm cache.
    """
    global _CACHE
    _CACHE = _LockedPrecomputeCache(max_entries=precompute_entries)
    if warm is not None:
        try:
            solve_rank_job(warm, None)
        except ReproError:
            # A bad warmup hint must not keep the service from starting.
            pass


def precompute_stats() -> Dict[str, Any]:
    """Hit/miss counters of this process's precompute cache."""
    if _CACHE is None:
        return {}
    return _CACHE.stats()


def solve_rank_job(
    canonical: Mapping[str, object], deadline: Optional[float]
) -> Dict[str, object]:
    """Solve one canonicalized rank request; returns the wire payload."""
    fault_point("service.solve.start", kind="rank")
    request = RankRequest.from_wire(canonical)
    result = api.solve_rank_request(request, cache=_CACHE, deadline=deadline)
    return RankResponse.from_result(request.fingerprint(), result).to_wire()


def solve_corner_job(
    canonical: Mapping[str, object], corner_name: str, deadline: Optional[float]
) -> Dict[str, object]:
    """Solve one corner of a corners request's base problem.

    The corner transform is applied to the request's baseline problem
    (scaled clock, permittivity, Miller factor — see
    :data:`repro.analysis.corners.STANDARD_CORNERS`) and the result is
    annotated with the corner name so per-corner payloads memoize
    independently of which selection asked for them.
    """
    from ..analysis.corners import STANDARD_CORNERS, apply_corner

    fault_point("service.solve.start", kind="corner", corner=corner_name)
    request = CornersRequest.from_wire(canonical)
    by_name = {corner.name: corner for corner in STANDARD_CORNERS}
    corner = by_name[corner_name]
    result = api.compute_rank(
        apply_corner(request.problem(), corner),
        deadline=deadline,
        cache=_CACHE,
        **request.solve_kwargs(),
    )
    payload = RankResponse.from_result(request.fingerprint(), result).to_wire()
    payload["corner"] = corner_name
    return dict(sorted(payload.items()))


def solve_optimize_job(
    canonical: Mapping[str, object], deadline: Optional[float]
) -> Dict[str, object]:
    """Run one architecture search; returns the wire payload.

    The search itself is a batch of candidate evaluations; the request
    deadline rides the cooperative per-solve deadline of each
    candidate, so an expiry surfaces as :class:`DeadlineExceeded` from
    whichever candidate was in flight.
    """
    fault_point("service.solve.start", kind="optimize")
    request = OptimizeRequest.from_wire(canonical)
    problem = request.problem()
    outcome = api.optimize_rank(
        problem,
        request.design_space(problem.die.node),
        deadline=deadline,
        cache=_CACHE,
        **request.solve_kwargs(),
    )
    def _candidate(entry: Any) -> Dict[str, object]:
        return dict(
            sorted(
                {
                    "label": entry.label(),
                    "metal_layers": entry.metal_layers,
                    "rank": int(entry.result.rank),
                    "normalized": float(entry.normalized),
                }.items()
            )
        )

    return dict(
        sorted(
            {
                "schema_version": canonical["schema_version"],
                "fingerprint": request.fingerprint(),
                "best": _candidate(outcome.best),
                "pareto": [_candidate(c) for c in outcome.pareto],
                "evaluated": len(outcome.evaluated),
                "failures": len(outcome.failures),
            }.items()
        )
    )
