"""Bounded solve executor: a thread pool behind a backpressured queue.

Heavy solves must never run on the event loop, so every cache miss is
dispatched here, to a :class:`~concurrent.futures.ThreadPoolExecutor`
of ``workers`` threads that share one lock-wrapped
:class:`~repro.api.PrecomputeCache` (see :mod:`repro.service.solve`).
The service keeps this pool instead of the batch runner's forked pool
(:mod:`repro.runner.parallel`) because its jobs are long-lived and
arrive one request at a time, its queue must be bounded so overload
answers ``429``, and its solves must share one in-process cache (and
one obs registry that ``/v1/metrics`` can read).

Capacity is ``workers + queue_depth`` jobs in flight; a submit beyond
that raises :class:`ServiceOverloaded`, which the HTTP layer maps to
``429 Too Many Requests`` with a ``Retry-After`` hint.  Bounding the
queue is what turns overload into fast, explicit rejection instead of
unbounded latency growth.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Any, Callable, Dict, Optional

from .. import obs
from ..errors import ReproError

__all__ = ["ServiceOverloaded", "SolveExecutor"]


class ServiceOverloaded(ReproError):
    """The solve queue is full; the caller should retry later.

    Carries ``retry_after_s``, the server's hint for the HTTP
    ``Retry-After`` header.
    """

    def __init__(self, message: str, retry_after_s: float = 1.0) -> None:
        super().__init__(message)
        self.retry_after_s = retry_after_s


class SolveExecutor:
    """Run solve jobs on ``workers`` threads, with backpressure."""

    def __init__(self, *, workers: int = 1, queue_depth: int = 16) -> None:
        if workers < 1:
            raise ReproError(f"workers must be >= 1, got {workers!r}")
        if queue_depth < 0:
            raise ReproError(f"queue_depth must be >= 0, got {queue_depth!r}")
        self.workers = workers
        self.queue_depth = queue_depth
        self.capacity = workers + queue_depth
        self._lock = threading.Lock()
        self._inflight = 0
        self._pool: Optional[ThreadPoolExecutor] = None
        self._closed = False

    # ------------------------------------------------------------------

    def start(self) -> None:
        """Create the thread pool."""
        self._pool = ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="repro-solve"
        )

    def close(self) -> None:
        """Shut the pool down; queued-but-unstarted jobs are dropped."""
        with self._lock:
            pool, self._pool = self._pool, None
            self._closed = True
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)

    # ------------------------------------------------------------------

    def submit(self, fn: Callable[..., Any], *args: Any) -> "Future[Any]":
        """Queue one job; raises :class:`ServiceOverloaded` when full."""
        with self._lock:
            if self._closed or self._pool is None:
                raise ReproError("solve executor is not running")
            if self._inflight >= self.capacity:
                obs.inc("service.backpressure.rejections")
                raise ServiceOverloaded(
                    f"solve queue is full ({self._inflight} jobs in flight, "
                    f"capacity {self.capacity}); retry later",
                    retry_after_s=1.0,
                )
            self._inflight += 1
            pool = self._pool
        try:
            future = pool.submit(fn, *args)
        except RuntimeError:
            with self._lock:
                self._inflight -= 1
            raise
        future.add_done_callback(self._on_done)
        return future

    def _on_done(self, future: "Future[Any]") -> None:
        with self._lock:
            self._inflight -= 1

    # ------------------------------------------------------------------

    def stats(self) -> Dict[str, object]:
        """Executor state for ``/v1/healthz`` and ``/v1/metrics``."""
        with self._lock:
            return {
                "workers": self.workers,
                "queue_depth": self.queue_depth,
                "capacity": self.capacity,
                "inflight": self._inflight,
            }
