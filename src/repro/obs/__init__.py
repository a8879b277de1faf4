"""Observability: metrics registry, tracing spans, cross-process merge.

The subsystem is off by default and costs (almost) nothing while off —
every publishing helper is one guarded function call, and the DP inner
loop publishes nothing at all (it folds its local
:class:`~repro.core.dp.SolverStats` into the registry once per solve).
Enable it for a region of work, then read the registry or write a
trace::

    from repro import obs

    obs.enable(trace_events=True)
    result = compute_rank(problem, bunch_size=10_000)
    obs.write_trace("rank.trace.json")   # load in Perfetto / chrome://tracing
    print(obs.snapshot()["counters"])    # {'solver.dp.rows': ..., ...}
    obs.disable()

The CLI exposes the same switch as ``--trace FILE`` on solve commands,
and ``ia-rank stats FILE`` renders the embedded metrics section of a
trace file.

Three guarantees the rest of the library relies on:

* **disabled means free** — ``enable()`` flips module-level booleans
  checked by :func:`repro.obs.metrics.inc` and friends; no registry
  lock is ever taken while disabled.
* **parallel equals sequential** — ``run_batch --jobs N`` workers
  collect metrics locally and the parent merges per-point deltas, so
  deterministic counter totals match a ``jobs=1`` run exactly
  (cache-warm accounting excluded; see
  :data:`repro.obs.aggregate.NONDETERMINISTIC_PREFIXES`).
* **standard trace format** — spans are Chrome trace events validated
  by :func:`validate_trace`, loadable in Perfetto without conversion.
"""

from __future__ import annotations

from . import aggregate, metrics, trace
from .aggregate import NONDETERMINISTIC_PREFIXES, deterministic_counters
from .metrics import (
    MetricsRegistry,
    gauge,
    inc,
    merge,
    metrics_enabled,
    observe,
    registry,
    snapshot,
)
from .trace import (
    span,
    tracing_enabled,
    validate_trace,
    write_trace,
)

__all__ = [
    "MetricsRegistry",
    "NONDETERMINISTIC_PREFIXES",
    "deterministic_counters",
    "disable",
    "enable",
    "gauge",
    "inc",
    "is_enabled",
    "merge",
    "metrics_enabled",
    "observe",
    "registry",
    "reset",
    "snapshot",
    "span",
    "tracing_enabled",
    "validate_trace",
    "write_trace",
]


def enable(trace_events: bool = False) -> None:
    """Turn on metric publishing (and span recording when asked).

    ``enable(trace_events=True)`` also records every :func:`span` as a
    Chrome trace event for a later :func:`write_trace`.  Enabling is
    idempotent and does not clear previously collected data — call
    :func:`reset` for a clean slate.
    """
    metrics._set_enabled(True)
    if trace_events:
        trace._set_enabled(True)


def disable() -> None:
    """Stop publishing metrics and recording spans (data is kept)."""
    metrics._set_enabled(False)
    trace._set_enabled(False)


def is_enabled() -> bool:
    """Whether any part of the subsystem (metrics or tracing) is on."""
    return metrics.metrics_enabled() or trace.tracing_enabled()


def reset() -> None:
    """Drop all collected metrics and buffered trace events."""
    metrics.reset()
    trace.clear_events()
