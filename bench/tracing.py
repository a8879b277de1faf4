"""Spans recorded from outside the program, around calls into its layers.

The traced run rebinds a layer's public function at the place its
caller looks it up (a module global or a class attribute) to a wrapper
that records a span, and restores every binding afterwards.  Nothing in
``src/`` changes.  A span has a name, a start, an end, the index of its
parent span and the id of the operation it belongs to.  Spans stay in
memory and are written as Chrome trace events (loadable in Perfetto) at
the end of the run.

A layer's self time is its span's duration minus the durations of its
direct children.  The spans of one process nest strictly (the traced
workloads call the program from a single thread), so the children of a
span never overlap.  Self times are summed at the host's quiet speed:
each operation's spans are weighted by the speed factor recorded for it
in :attr:`Tracer.factors` (``stats.Speed``).
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterator, List, Sequence, Tuple


#: Chrome trace events count time in microseconds.
MICROSECONDS = 1_000_000


class Span:
    __slots__ = ("name", "start", "end", "parent", "op")

    def __init__(self, name: str, start: float, parent: int, op: int) -> None:
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op


class Tracer:
    """In-memory span recorder plus the rebinding it traces through."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.op = -1
        self.ops = 0
        #: Operation id -> speed factor of its timed region.
        self.factors: Dict[int, float] = {}
        self._stack: List[int] = []
        self._patches: List[Tuple[Any, str, Any]] = []

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        record = Span(name, 0.0, self._stack[-1] if self._stack else -1, self.op)
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record.start = time.perf_counter()
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def operation(self, name: str = "op") -> Iterator[Span]:
        """A span that starts a new operation: it and its children share
        a fresh op id."""
        self.op = self.ops
        self.ops += 1
        try:
            with self.span(name) as record:
                yield record
        finally:
            self.op = -1

    def wrap(self, owner: Any, attr: str, name: str, operation: bool = False) -> None:
        """Record a span named ``name`` around every call of ``owner.attr``;
        with ``operation``, each call also starts a new operation."""
        original = getattr(owner, attr)
        span = self.operation if operation else self.span

        def traced(*args: Any, **kwargs: Any) -> Any:
            with span(name):
                return original(*args, **kwargs)

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def unwrap(self) -> None:
        """Restore every binding :meth:`wrap` replaced."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------

    def self_times(self) -> List[float]:
        child = [0.0] * len(self.spans)
        for record in self.spans:
            if record.parent >= 0:
                child[record.parent] += record.end - record.start
        return [(s.end - s.start) - c for s, c in zip(self.spans, child)]

    def self_time(self, names: Sequence[str], ops: Sequence[int]) -> float:
        """Summed self time of the spans named ``names`` within ``ops``,
        at the quiet speed."""
        wanted, selected = set(names), set(ops)
        return sum(
            own * self.factors.get(record.op, 1.0)
            for record, own in zip(self.spans, self.self_times())
            if record.name in wanted and record.op in selected
        )

    def durations(self, name: str) -> List[float]:
        """Whole durations (children included) of every span named ``name``."""
        return [s.end - s.start for s in self.spans if s.name == name]

    def count(self, name: str, ops: Sequence[int]) -> int:
        selected = set(ops)
        return sum(1 for s in self.spans if s.name == name and s.op in selected)

    def write(self, path: Path, meta: Dict[str, Any]) -> None:
        """Write the spans as Chrome trace events."""
        base = min((s.start for s in self.spans), default=0.0)
        pid = os.getpid()
        events = [
            {
                "name": s.name,
                "ph": "X",
                "ts": (s.start - base) * MICROSECONDS,
                "dur": (s.end - s.start) * MICROSECONDS,
                "pid": pid,
                "tid": 0,
                "args": {"op": s.op, "parent": s.parent},
            }
            for s in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events, "metadata": meta}) + "\n")
