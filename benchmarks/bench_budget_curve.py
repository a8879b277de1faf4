"""Extension: budget elasticity — the whole rank(budget) curve at once.

Complements the Table 4 R column (E4): the R sweep couples budget to
die inflation (Eq. 6), while this curve holds the die fixed and maps
rank against spendable repeater area directly.  Its near-constant slope
— roughly one marginal wire certified per s_opt repeater's worth of
area — is the arithmetic behind the paper's linear R column.
"""

import numpy as np

# Internal import on purpose: this microbenchmark isolates the DP
# curve pass from the table build, which api.budget_curve folds in.
from repro.core.curve import solve_budget_rank_curve  # noqa: RPL004
from repro.reporting.text import format_table
from repro.units import to_mm2

from .conftest import BENCH_GATES, run_once

from repro.api import baseline_problem, compute_rank


def test_budget_rank_curve(benchmark):
    problem = baseline_problem("130nm", min(BENCH_GATES, 400_000))
    tables, _ = problem.tables(bunch_size=10_000)
    curve = run_once(
        benchmark, lambda: solve_budget_rank_curve(tables, repeater_units=128)
    )
    total = tables.total_wires
    rows = []
    for cells in (0, 16, 32, 48, 64, 80, 96, 112, 128):
        area = cells * curve.cell_area
        rows.append(
            (
                cells,
                f"{to_mm2(area):.3f}",
                curve.ranks[cells],
                f"{curve.ranks[cells] / total:.6f}",
            )
        )
    print()
    print(
        format_table(
            ("budget cells", "area [mm^2]", "rank", "normalized"),
            rows,
            title="Budget elasticity at fixed die (rank per repeater area)",
        )
    )
    print(
        f"pack checks: {curve.stats.pack_checks} "
        f"(pruned by threshold: {curve.stats.pack_pruned})"
    )
    slopes = curve.marginal_wires_per_cell()
    mid = slopes[len(slopes) // 4: 3 * len(slopes) // 4]
    print(
        f"mid-curve slope: {np.mean(mid):.0f} wires/cell "
        f"(cv {np.std(mid) / max(np.mean(mid), 1):.2f})"
    )
    assert curve.fits
    assert list(curve.ranks) == sorted(curve.ranks)
    # the full-budget end of the curve is the single-rank solve
    full = compute_rank(problem, bunch_size=10_000, repeater_units=128)
    assert curve.ranks[-1] == full.rank
    # the interior of the curve keeps climbing (budget stays binding)
    assert np.mean(mid) > 0
