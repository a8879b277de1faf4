"""Human-readable rendering of metrics snapshots (``ia-rank stats``).

Takes the JSON ``metrics`` section embedded in a ``--trace`` file and
renders counters, timing histograms, and
gauges as fixed-width tables.  Lives apart from the rest of
:mod:`repro.obs` so the zero-dependency publishing path never imports
the reporting layer.
"""

from __future__ import annotations

from typing import List, Optional

from ..units import to_us


def _format_seconds(seconds: Optional[float]) -> str:
    if seconds is None:
        return "-"
    if seconds >= 1.0:
        return f"{seconds:.3f} s"
    if seconds >= 1e-3:
        return f"{seconds * 1e3:.3f} ms"
    return f"{to_us(seconds):.1f} us"


def format_metrics(snapshot: dict) -> str:
    """Render one registry snapshot as counter / timer / gauge tables."""
    # Local import: reporting pulls in analysis + core, which (being
    # instrumented) import repro.obs — keep that cycle out of obs
    # import time.
    from ..reporting.text import format_table

    sections: List[str] = []

    counters = snapshot.get("counters", {})
    if counters:
        rows = [(name, f"{value:,}") for name, value in sorted(counters.items())]
        sections.append(format_table(("counter", "value"), rows, title="Counters"))

    timers = snapshot.get("timers", {})
    if timers:
        rows = []
        for name, timer in sorted(timers.items()):
            count = timer.get("count", 0)
            total = timer.get("total_s", 0.0)
            mean = total / count if count else None
            rows.append(
                (
                    name,
                    count,
                    _format_seconds(total),
                    _format_seconds(mean),
                    _format_seconds(timer.get("min_s")),
                    _format_seconds(timer.get("max_s")),
                )
            )
        sections.append(
            format_table(
                ("timer", "count", "total", "mean", "min", "max"),
                rows,
                title="Timers",
            )
        )

    gauges = snapshot.get("gauges", {})
    if gauges:
        rows = [(name, f"{value:g}") for name, value in sorted(gauges.items())]
        sections.append(format_table(("gauge", "value"), rows, title="Gauges"))

    if not sections:
        return "no metrics recorded"
    return "\n\n".join(sections)
