"""Tracing spans emitted as Chrome trace-event JSON.

:func:`span` is the library's tracing primitive: a context manager
that, while tracing is enabled, records one *complete* (``"ph": "X"``)
Chrome trace event with the span's wall-clock duration — and, while
only metrics are enabled, still feeds a ``span.<name>_s`` timing
histogram.  When the subsystem is fully disabled, :func:`span` returns
a shared no-op object, so dormant instrumentation costs one function
call and one boolean check.

:func:`write_trace` serializes the buffered events in the JSON *object*
flavour of the Chrome trace-event format
(``{"traceEvents": [...], ...}``), which ``chrome://tracing`` and
Perfetto's legacy importer both load directly.  The current metrics
snapshot rides along under a top-level ``"metrics"`` key (extra keys
are explicitly permitted by the format), which is what lets a parallel
and a sequential ``--trace`` run be compared for counter parity from
their trace files alone.

Timestamps are ``time.monotonic()`` microseconds.  On Linux that clock
is system-wide, so events recorded in worker processes (shipped back by
:mod:`repro.obs.aggregate`) land on a timeline consistent with the
parent's — each process keeps its own ``pid`` lane in the viewer.
"""

from __future__ import annotations

import json
import os
import threading
import time
from types import TracebackType
from typing import Dict, Iterable, List, Optional, Type, Union

from . import metrics as _metrics
from ..units import to_us

#: Event-phase values this library emits / accepts when validating.
VALID_PHASES = frozenset({"X", "B", "E", "i", "I", "C", "M"})

#: Cap on buffered events; beyond it events are counted, not stored.
MAX_EVENTS = 200_000

_ENABLED = False
_LOCK = threading.Lock()
_EVENTS: List[dict] = []
_DROPPED = 0


def _reinit_after_fork() -> None:
    """Replace the buffer lock in forked children.

    A forked worker inherits ``_LOCK`` in whatever state the parent's
    threads left it at ``fork()`` time; if any thread held it (a
    concurrent :func:`add_event`), the child's copy is locked forever
    and the first worker-side trace call deadlocks.  Fresh-lock-on-fork
    is the same discipline the stdlib ``logging`` module applies to its
    module lock.
    """
    global _LOCK
    _LOCK = threading.Lock()


os.register_at_fork(after_in_child=_reinit_after_fork)


def tracing_enabled() -> bool:
    """Whether span events are currently being recorded."""
    return _ENABLED


def _set_enabled(on: bool) -> None:
    global _ENABLED
    _ENABLED = on


def add_event(event: dict) -> None:
    """Append one raw trace event (callers normally use :func:`span`)."""
    global _DROPPED
    with _LOCK:
        if len(_EVENTS) >= MAX_EVENTS:
            _DROPPED += 1
            return
        _EVENTS.append(event)


def events() -> List[dict]:
    """Copy of the buffered events (worker shipment / tests)."""
    with _LOCK:
        return list(_EVENTS)


def extend_events(incoming: Iterable[dict]) -> None:
    """Append events merged back from a worker process."""
    global _DROPPED
    with _LOCK:
        for event in incoming:
            if len(_EVENTS) >= MAX_EVENTS:
                _DROPPED += 1
                continue
            _EVENTS.append(event)


def clear_events() -> None:
    """Drop the buffer (used per-point in worker processes)."""
    global _DROPPED
    with _LOCK:
        _EVENTS.clear()
        _DROPPED = 0


class Span:
    """One live span; created by :func:`span`, closed by ``with``."""

    __slots__ = ("name", "args", "_start")

    def __init__(self, name: str, args: Dict[str, object]) -> None:
        self.name = name
        self.args = args
        self._start = 0.0

    def __enter__(self) -> "Span":
        self._start = time.monotonic()
        return self

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> bool:
        end = time.monotonic()
        duration = end - self._start
        if _metrics.metrics_enabled():
            _metrics.observe(f"span.{self.name}_s", duration)
        if _ENABLED:
            event = {
                "name": self.name,
                "cat": "repro",
                "ph": "X",
                "ts": to_us(self._start),
                "dur": to_us(duration),
                "pid": os.getpid(),
                "tid": threading.get_ident() % 2**31,
            }
            if self.args:
                event["args"] = dict(self.args)
            if exc_type is not None:
                event.setdefault("args", {})["error"] = exc_type.__name__
            add_event(event)
        return False


class _NullSpan:
    """Shared do-nothing span handed out while tracing is off."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> bool:
        return False


_NULL_SPAN = _NullSpan()


def span(name: str, **args: object) -> Union[Span, "_NullSpan"]:
    """A context manager timing one named region of work.

    Returns the shared no-op span unless tracing or metrics are
    enabled, so instrumentation left in place costs (almost) nothing
    when observability is off.  ``args`` become the Chrome event's
    ``args`` payload — keep them small and JSON-compatible.
    """
    if not (_ENABLED or _metrics.metrics_enabled()):
        return _NULL_SPAN
    return Span(name, args)


def write_trace(
    path: Union[str, "os.PathLike[str]"], extra: Optional[dict] = None
) -> int:
    """Write the buffered events as a Chrome trace-event JSON file.

    The file is written atomically (temp + ``os.replace``) and carries
    the current metrics snapshot under ``"metrics"``; ``extra`` entries
    are folded into ``"otherData"``.  Returns the number of events
    written.
    """
    with _LOCK:
        trace_events = list(_EVENTS)
        dropped = _DROPPED
    other = {"events_dropped": dropped}
    if extra:
        other.update(extra)
    payload = {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
        "metrics": _metrics.snapshot(),
        "otherData": other,
    }
    path = os.fspath(path)
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w") as handle:
            json.dump(payload, handle, indent=1)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return len(trace_events)


def validate_trace(payload: object) -> List[str]:
    """Check a loaded trace file against the Chrome trace-event schema.

    Returns a list of human-readable problems — empty means the file is
    a well-formed JSON-object-format trace that Perfetto's legacy
    importer will accept.  Validation is structural (required keys and
    types per event), not semantic.
    """
    problems: List[str] = []
    if not isinstance(payload, dict):
        return ["top level must be a JSON object with a 'traceEvents' array"]
    trace_events = payload.get("traceEvents")
    if not isinstance(trace_events, list):
        return ["'traceEvents' must be an array"]
    for index, event in enumerate(trace_events):
        where = f"traceEvents[{index}]"
        if not isinstance(event, dict):
            problems.append(f"{where}: event must be an object")
            continue
        phase = event.get("ph")
        if not isinstance(phase, str) or phase not in VALID_PHASES:
            problems.append(f"{where}: bad phase {phase!r}")
            continue
        if not isinstance(event.get("name"), str) or not event["name"]:
            problems.append(f"{where}: missing event name")
        ts = event.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            problems.append(f"{where}: 'ts' must be a non-negative number")
        for field in ("pid", "tid"):
            if not isinstance(event.get(field), int):
                problems.append(f"{where}: {field!r} must be an integer")
        if phase == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                problems.append(
                    f"{where}: complete event needs non-negative 'dur'"
                )
        if "args" in event and not isinstance(event["args"], dict):
            problems.append(f"{where}: 'args' must be an object")
    return problems
