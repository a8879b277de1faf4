"""Minimal fixed-width text table rendering.

No third-party dependency: benchmarks and the CLI print paper-shaped
tables through :func:`format_table`, and fault-tolerant batch runs
render their journals through :func:`format_run_journal`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Sequence

if TYPE_CHECKING:
    from ..runner.journal import RunJournal


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: str = "",
) -> str:
    """Render a fixed-width table with a header rule.

    Cells are stringified with ``str``; columns are right-aligned except
    the first, which is left-aligned (conventional for label columns).
    """
    str_rows: List[List[str]] = [[str(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        if len(row) != len(headers):
            raise ValueError(
                f"row has {len(row)} cells but table has {len(headers)} columns"
            )
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))

    def render_row(cells: Sequence[str]) -> str:
        parts = []
        for index, cell in enumerate(cells):
            if index == 0:
                parts.append(cell.ljust(widths[index]))
            else:
                parts.append(cell.rjust(widths[index]))
        return "  ".join(parts)

    lines = []
    if title:
        lines.append(title)
    lines.append(render_row(headers))
    lines.append("  ".join("-" * w for w in widths))
    lines.extend(render_row(row) for row in str_rows)
    return "\n".join(lines)


def format_run_journal(journal: "RunJournal") -> str:
    """Render a batch run journal for humans.

    The output always leads with the one-line summary; failed points
    get a table with their final error, and any degraded-but-successful
    points are listed so accuracy trades are never silent.
    """
    from ..runner.journal import STATUS_FAILED

    lines = [journal.summary()]

    rows = []
    for record in journal.records:
        notable = record.status == STATUS_FAILED or (
            record.attempts and len(record.attempts) > 1
        )
        if not notable:
            continue
        last = record.attempts[-1] if record.attempts else None
        error = f"{last.error_type}: {last.error_message}" if last and last.error_type else ""
        degraded = (
            " ".join(f"{k}={v:g}" for k, v in last.degradation.items())
            if last
            else ""
        )
        rows.append(
            (
                record.key,
                record.status,
                len(record.attempts),
                degraded or "-",
                error or "-",
            )
        )
    if rows:
        lines.append("")
        lines.append(
            format_table(
                ("point", "status", "attempts", "degradation", "last error"),
                rows,
                title="Failures and retries",
            )
        )

    degradations = journal.degradations()
    if degradations:
        lines.append("")
        lines.append(
            "degraded points (results are coarser than requested): "
            + ", ".join(
                f"{key} [{' '.join(f'{k}={v:g}' for k, v in knobs.items())}]"
                for key, (_, knobs) in sorted(degradations.items())
            )
        )
    return "\n".join(lines)
