"""Report formatting: Table-4-style text tables, witnesses, result JSON."""

from .persist import rank_result_from_dict, rank_result_to_dict
from .tables import (
    format_equivalence_table,
    format_node_table,
    format_sweep_table,
    sweep_to_csv,
)
from .text import format_run_journal, format_table
from .witness import PairUsage, assignment_usage, format_assignment_report

__all__ = [
    "format_table",
    "format_run_journal",
    "format_sweep_table",
    "format_equivalence_table",
    "format_node_table",
    "sweep_to_csv",
    "rank_result_to_dict",
    "rank_result_from_dict",
    "PairUsage",
    "assignment_usage",
    "format_assignment_report",
]
