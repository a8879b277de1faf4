"""Experiment E6: Figure 2 — suboptimality of greedy assignment.

Builds the paper's counterexample shape (four near-equal wires, two
layer-pairs, budget sized to ~2.2 expensive stages) and compares the
greedy and DP solvers; the paper's separation is greedy rank 2 vs
optimal rank 4, confirmed here by exhaustive search.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "examples"))

from greedy_counterexample import build_figure2_problem  # noqa: E402

from repro import compute_rank, solve_rank_exhaustive  # noqa: E402
from repro.reporting.text import format_table  # noqa: E402

from .conftest import run_once  # noqa: E402


def test_figure2_greedy_vs_optimal(benchmark):
    problem = build_figure2_problem()

    def run():
        greedy = compute_rank(problem, solver="greedy")
        optimal = compute_rank(problem, solver="dp", repeater_units=256)
        tables, _ = problem.tables()
        brute = solve_rank_exhaustive(tables, repeater_units=256)
        return greedy, optimal, brute

    greedy, optimal, brute = run_once(benchmark, run)
    print()
    print(
        format_table(
            ("assignment", "rank (repro)", "rank (paper)"),
            [
                ("greedy top-down", greedy.rank, 2),
                ("optimal (DP)", optimal.rank, 4),
                ("exhaustive", brute.rank, 4),
            ],
            title="E6: Figure 2 counterexample",
        )
    )
    assert greedy.rank == 2
    assert optimal.rank == 4
    assert brute.rank == 4
