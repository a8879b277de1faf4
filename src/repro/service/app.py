"""The rank service: request handling over the schema + executor.

Request lifecycle (the tentpole contract):

1. Parse JSON, build the typed request (:mod:`repro.schema`) — a
   :class:`~repro.errors.SchemaError` answers ``400``.
2. Canonicalize and fingerprint.  The fingerprint keys everything
   downstream; the transport-only deadline never reaches it, so it
   cannot fragment the caches.
3. Memo lookup (:class:`~repro.service.memo.ResultCache`): a hit
   replays the stored body byte-identically (``X-Repro-Cache: hit``).
4. In-flight dedup: a second identical request arriving while the
   first still computes awaits the same future instead of submitting a
   duplicate solve (``X-Repro-Cache: coalesced``).
5. Miss: dispatch to the :class:`~repro.service.executor.SolveExecutor`
   under the request deadline.  Backpressure answers ``429`` with
   ``Retry-After``; a cooperative deadline expiry answers ``504``
   (sweeps may return the completed prefix instead, see
   :class:`~repro.schema.SweepRequest`).

Composite endpoints decompose into point-level work that shares the
same memo cache: each sweep value is solved as its equivalent
``/v1/rank`` request, each corner as a per-corner job keyed by the
base problem — so a sweep warms the cache for later rank requests and
vice versa.
"""

from __future__ import annotations

import asyncio
import json
import time
from collections import deque
from dataclasses import dataclass
from typing import (
    Any,
    Awaitable,
    Callable,
    Deque,
    Dict,
    List,
    Mapping,
    Optional,
    Tuple,
)

from .. import __version__, obs
from ..errors import DeadlineExceeded, ReproError, SchemaError
from ..faultkit import fault_point
from ..schema import (
    SCHEMA_VERSION,
    CornersRequest,
    OptimizeRequest,
    RankRequest,
    SweepRequest,
    canonical_fingerprint,
    canonical_json_bytes,
)
from .executor import ServiceOverloaded, SolveExecutor
from .http import HttpError, HttpRequest, json_error_body
from .memo import ResultCache
from . import solve

__all__ = ["ServiceConfig", "RankApp", "Response"]

#: Per-endpoint latency reservoir size (ring buffer per endpoint).
_LATENCY_WINDOW = 2048

#: Ceiling on any request's ``deadline_s``, in seconds.
MAX_DEADLINE_S = 300.0


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables of one service instance (the ``ia-rank serve`` knobs)."""

    host: str = "127.0.0.1"
    port: int = 8421
    workers: int = 1
    queue_depth: int = 16
    cache_entries: int = 256
    precompute_entries: int = 8
    default_deadline_s: Optional[float] = 30.0
    warm_on_start: bool = False


@dataclass
class Response:
    """What a handler returns; the server layer renders it."""

    status: int
    body: bytes
    headers: Tuple[Tuple[str, str], ...] = ()


class _Latencies:
    """Bounded per-endpoint latency samples with cheap quantiles."""

    def __init__(self, window: int = _LATENCY_WINDOW) -> None:
        self._window = window
        self._samples: Dict[str, Deque[float]] = {}

    def record(self, endpoint: str, seconds: float) -> None:
        bucket = self._samples.get(endpoint)
        if bucket is None:
            bucket = self._samples[endpoint] = deque(maxlen=self._window)
        bucket.append(seconds)
        obs.observe(f"service.latency.{endpoint}", seconds)

    def summary(self) -> Dict[str, Dict[str, float]]:
        out: Dict[str, Dict[str, float]] = {}
        for endpoint, bucket in sorted(self._samples.items()):
            data = sorted(bucket)
            n = len(data)
            if not n:
                continue
            out[endpoint] = {
                "count": float(n),
                "p50_s": data[(n - 1) // 2],
                "p99_s": data[min(n - 1, (99 * n) // 100)],
                "max_s": data[-1],
            }
        return out


class RankApp:
    """Route table + request lifecycle, independent of the socket layer.

    Split from the server so tests (and the benchmark harness) can
    drive the full pipeline — schema, memo, dedup, executor, deadlines
    — through :meth:`dispatch` without opening a port.
    """

    def __init__(self, config: ServiceConfig) -> None:
        self.config = config
        self.memo = ResultCache(max_entries=config.cache_entries)
        self.executor = SolveExecutor(
            workers=config.workers,
            queue_depth=config.queue_depth,
        )
        self.latencies = _Latencies()
        self._inflight: Dict[str, "asyncio.Task[bytes]"] = {}
        self._started = time.monotonic()
        self._routes: Dict[Tuple[str, str], Callable[..., Awaitable[Response]]] = {
            ("POST", "/v1/rank"): self._handle_rank,
            ("POST", "/v1/sweep"): self._handle_sweep,
            ("POST", "/v1/corners"): self._handle_corners,
            ("POST", "/v1/optimize"): self._handle_optimize,
            ("GET", "/v1/metrics"): self._handle_metrics,
            ("GET", "/v1/healthz"): self._handle_healthz,
        }

    def start(self) -> None:
        """Configure (and optionally warm) the solve cache, then start the executor."""
        obs.enable()
        solve.configure(
            self.config.precompute_entries,
            warm=RankRequest().canonicalize() if self.config.warm_on_start else None,
        )
        self.executor.start()

    def close(self) -> None:
        self.executor.close()

    # ------------------------------------------------------------------
    # dispatch

    async def dispatch(self, request: HttpRequest) -> Response:
        """Route one request; every failure maps to a definite status."""
        endpoint = request.path.rsplit("/", 1)[-1] or "root"
        started = time.perf_counter()
        obs.inc("service.requests")
        try:
            fault_point(
                "service.request.start",
                method=request.method,
                path=request.path,
            )
            handler = self._routes.get((request.method, request.path))
            if handler is None:
                allowed = sorted(
                    method for method, path in self._routes if path == request.path
                )
                if allowed:
                    raise HttpError(
                        405,
                        f"{request.method} not allowed on {request.path}",
                        headers=(("Allow", ", ".join(allowed)),),
                    )
                raise HttpError(404, f"no such endpoint: {request.path}")
            response = await handler(request)
        except HttpError as exc:
            response = Response(
                exc.status,
                json_error_body(exc.status, _error_name(exc.status), exc.message),
                headers=exc.headers,
            )
        except SchemaError as exc:
            obs.inc("service.errors.schema")
            response = Response(400, json_error_body(400, "SchemaError", str(exc)))
        except ServiceOverloaded as exc:
            response = Response(
                429,
                json_error_body(429, "ServiceOverloaded", str(exc)),
                headers=(("Retry-After", f"{exc.retry_after_s:g}"),),
            )
        except DeadlineExceeded as exc:
            obs.inc("service.deadline.expired")
            response = Response(
                504, json_error_body(504, "DeadlineExceeded", str(exc))
            )
        except ReproError as exc:
            obs.inc("service.errors.internal")
            response = Response(
                500, json_error_body(500, type(exc).__name__, str(exc))
            )
        except asyncio.CancelledError:
            raise
        except Exception as exc:  # noqa: BLE001 - the service must answer
            obs.inc("service.errors.unexpected")
            response = Response(
                500, json_error_body(500, type(exc).__name__, str(exc))
            )
        elapsed = time.perf_counter() - started
        self.latencies.record(endpoint, elapsed)
        obs.inc(f"service.requests.{endpoint}")
        response.headers = response.headers + (
            ("X-Repro-Elapsed-S", f"{elapsed:.6f}"),
        )
        return response

    # ------------------------------------------------------------------
    # the point-level solve path (shared by /v1/rank and sweep points)

    def _deadline_from(self, deadline_s: Optional[float]) -> Optional[float]:
        """Absolute monotonic deadline for a request-relative one."""
        if deadline_s is None:
            deadline_s = self.config.default_deadline_s
        if deadline_s is None:
            return None
        deadline_s = min(deadline_s, MAX_DEADLINE_S)
        return time.monotonic() + deadline_s

    async def _solve_point(
        self,
        fingerprint: str,
        job: Callable[..., Mapping[str, object]],
        args: Tuple[Any, ...],
        deadline: Optional[float],
    ) -> Tuple[bytes, str]:
        """Memoized, deduplicated execution of one solve job.

        Returns ``(body, source)`` with source one of ``hit`` /
        ``coalesced`` / ``miss``.  The body bytes are exactly what was
        (or will be) memoized, so every path replays byte-identically.
        """
        body = self.memo.get(fingerprint)
        if body is not None:
            return body, "hit"
        pending = self._inflight.get(fingerprint)
        if pending is not None:
            obs.inc("service.dedup.coalesced")
            # shield(): a waiter disconnecting must not cancel the
            # shared solve other waiters still want.
            return await asyncio.shield(pending), "coalesced"
        if deadline is not None and time.monotonic() >= deadline:
            raise DeadlineExceeded("request deadline expired before dispatch")
        # Submit before creating the tracking task so backpressure
        # (ServiceOverloaded) raises in this requester's context.
        future = self.executor.submit(job, *args, deadline)

        async def _await_and_memoize() -> bytes:
            payload = await asyncio.wrap_future(future)
            result = canonical_json_bytes(payload)
            self.memo.put(fingerprint, result)
            return result

        task = asyncio.get_running_loop().create_task(_await_and_memoize())
        task.add_done_callback(self._solve_finished(fingerprint))
        self._inflight[fingerprint] = task
        return await asyncio.shield(task), "miss"

    def _solve_finished(
        self, fingerprint: str
    ) -> Callable[["asyncio.Task[bytes]"], None]:
        def _done(task: "asyncio.Task[bytes]") -> None:
            self._inflight.pop(fingerprint, None)
            if not task.cancelled():
                # Touch the exception so an unconsumed failure (every
                # waiter gone) doesn't log "never retrieved".
                task.exception()

        return _done

    # ------------------------------------------------------------------
    # endpoints

    async def _handle_rank(self, request: HttpRequest) -> Response:
        rank_request = RankRequest.from_wire(_parse_json(request.body))
        deadline = self._deadline_from(rank_request.deadline_s)
        canonical = rank_request.canonicalize()
        body, source = await self._solve_point(
            canonical_fingerprint(canonical),
            solve.solve_rank_job,
            (canonical,),
            deadline,
        )
        return Response(200, body, headers=(("X-Repro-Cache", source),))

    async def _handle_sweep(self, request: HttpRequest) -> Response:
        sweep_request = SweepRequest.from_wire(_parse_json(request.body))
        fingerprint = sweep_request.fingerprint()
        memoized = self.memo.get(fingerprint)
        if memoized is not None:
            return Response(200, memoized, headers=(("X-Repro-Cache", "hit"),))
        deadline = self._deadline_from(sweep_request.deadline_s)

        points: List[Dict[str, object]] = []
        failures: List[Dict[str, object]] = []
        partial = False
        for value in sweep_request.values:
            if deadline is not None and time.monotonic() >= deadline:
                partial = True
                break
            point = sweep_request.point_request(value).canonicalize()
            try:
                body, _ = await self._solve_point(
                    canonical_fingerprint(point),
                    solve.solve_rank_job,
                    (point,),
                    deadline,
                )
            except DeadlineExceeded:
                partial = True
                break
            except ServiceOverloaded:
                raise
            except ReproError as exc:
                failures.append(
                    dict(
                        sorted(
                            {
                                "value": float(value),
                                "error": type(exc).__name__,
                                "message": str(exc),
                            }.items()
                        )
                    )
                )
                continue
            payload = json.loads(body)
            payload["value"] = float(value)
            points.append(dict(sorted(payload.items())))

        if partial and not sweep_request.allow_partial:
            raise DeadlineExceeded(
                f"sweep deadline expired after {len(points)} of "
                f"{len(sweep_request.values)} points (allow_partial=false)"
            )
        result = {
            "schema_version": SCHEMA_VERSION,
            "fingerprint": fingerprint,
            "knob": sweep_request.knob,
            "points": points,
            "failures": failures,
            "partial": partial,
        }
        body = canonical_json_bytes(dict(sorted(result.items())))
        source = "miss"
        if not partial and not failures:
            # Partial/failed sweeps must not poison the memo: a retry
            # with more headroom should recompute, not replay the gap.
            self.memo.put(fingerprint, body)
        return Response(200, body, headers=(("X-Repro-Cache", source),))

    async def _handle_corners(self, request: HttpRequest) -> Response:
        corners_request = CornersRequest.from_wire(_parse_json(request.body))
        canonical = corners_request.canonicalize()
        fingerprint = canonical_fingerprint(canonical)
        memoized = self.memo.get(fingerprint)
        if memoized is not None:
            return Response(200, memoized, headers=(("X-Repro-Cache", "hit"),))
        deadline = self._deadline_from(corners_request.deadline_s)

        # Per-corner results memoize against the *base* problem (the
        # corner selection stripped), so different selections share.
        base = dict(canonical)
        base.pop("corners")
        base_fp = canonical_fingerprint(base)
        results: List[Dict[str, object]] = []
        for name in corners_request.selected_corner_names():
            body, _ = await self._solve_point(
                f"corner:{base_fp}:{name}",
                solve.solve_corner_job,
                (canonical, name),
                deadline,
            )
            results.append(json.loads(body))

        worst = min(results, key=lambda r: (r["rank"], r["corner"]))
        nominal = next(
            (r for r in results if r["corner"] == "nominal"), results[0]
        )
        result = {
            "schema_version": SCHEMA_VERSION,
            "fingerprint": fingerprint,
            "corners": results,
            "worst": worst["corner"],
            "guardband": float(nominal["normalized"]) - float(worst["normalized"]),
        }
        body = canonical_json_bytes(dict(sorted(result.items())))
        self.memo.put(fingerprint, body)
        return Response(200, body, headers=(("X-Repro-Cache", "miss"),))

    async def _handle_optimize(self, request: HttpRequest) -> Response:
        optimize_request = OptimizeRequest.from_wire(_parse_json(request.body))
        deadline = self._deadline_from(optimize_request.deadline_s)
        canonical = optimize_request.canonicalize()
        body, source = await self._solve_point(
            canonical_fingerprint(canonical),
            solve.solve_optimize_job,
            (canonical,),
            deadline,
        )
        return Response(200, body, headers=(("X-Repro-Cache", source),))

    async def _handle_metrics(self, request: HttpRequest) -> Response:
        snapshot = obs.snapshot()
        payload = {
            "schema_version": SCHEMA_VERSION,
            "uptime_s": time.monotonic() - self._started,
            "metrics": snapshot,
            "latency": self.latencies.summary(),
            "cache": self.memo.stats(),
            "executor": self.executor.stats(),
            "precompute": solve.precompute_stats(),
        }
        return Response(
            200, json.dumps(payload, sort_keys=True).encode("utf-8")
        )

    async def _handle_healthz(self, request: HttpRequest) -> Response:
        payload = {
            "status": "ok",
            "version": __version__,
            "schema_version": SCHEMA_VERSION,
            "uptime_s": time.monotonic() - self._started,
            "executor": self.executor.stats(),
        }
        return Response(
            200, json.dumps(payload, sort_keys=True).encode("utf-8")
        )


# ----------------------------------------------------------------------


def _parse_json(body: bytes) -> Mapping[str, object]:
    if not body:
        raise HttpError(400, "request body must be a JSON object")
    try:
        payload = json.loads(body)
    except json.JSONDecodeError as exc:
        raise HttpError(400, f"request body is not valid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise HttpError(400, "request body must be a JSON object")
    return payload


def _error_name(status: int) -> str:
    return {
        400: "BadRequest",
        404: "NotFound",
        405: "MethodNotAllowed",
        408: "RequestTimeout",
        413: "PayloadTooLarge",
        429: "TooManyRequests",
        501: "NotImplemented",
        504: "DeadlineExceeded",
    }.get(status, "Error")
