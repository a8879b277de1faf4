#!/usr/bin/env python3
"""Figure 2: greedy top-down wire assignment is suboptimal.

Reconstructs the paper's counterexample: four (near-)equal wires, two
layer-pairs whose repeaters differ sharply in cost, and a repeater
budget sized so that greedy — which fills the expensive top pair first —
burns the budget on two wires, while the optimum routes everything on
the cheap bottom pair and ranks all four.

Run:

    python examples/greedy_counterexample.py
"""

from repro import (
    ArchitectureSpec,
    DieModel,
    RankProblem,
    build_architecture,
    compute_rank,
    get_node,
    solve_rank_exhaustive,
)
from repro.delay.repeater import optimal_repeater_size
from repro.units import to_um2
from repro.wld.synthetic import wld_from_pairs


def build_figure2_problem() -> RankProblem:
    """Four wires, two pairs, budget = 2.2 expensive stages."""
    node = get_node("130nm")
    arch = build_architecture(
        ArchitectureSpec(
            node=node, local_pairs=1, semi_global_pairs=0, global_pairs=1
        )
    )
    s_top = optimal_repeater_size(arch.pair(0).rc, node.device)
    gates = 1000
    budget = 2.2 * s_top * node.device.min_inverter_area
    gate_area = node.gate_pitch ** 2 * gates
    die = DieModel(
        node=node,
        gate_count=gates,
        repeater_fraction=budget / (budget + gate_area),
    )
    wld = wld_from_pairs([(100.0, 1), (99.0, 1), (98.0, 1), (97.0, 1)])
    return RankProblem(arch=arch, die=die, wld=wld, clock_frequency=5e8)


def main() -> None:
    problem = build_figure2_problem()
    node = problem.die.node

    s_top = optimal_repeater_size(problem.arch.pair(0).rc, node.device)
    s_bot = optimal_repeater_size(problem.arch.pair(1).rc, node.device)
    print("Instance (the paper's Figure 2 shape):")
    print(f"  4 near-equal wires, 2 layer-pairs")
    print(f"  top-pair repeater size (cost):    {s_top:.0f}x minimum")
    print(f"  bottom-pair repeater size (cost): {s_bot:.0f}x minimum")
    print(
        f"  budget: {to_um2(problem.die.repeater_area):.2f} um^2 "
        f"(~2.2 top-pair stages, ~{2.2 * s_top / s_bot:.1f} bottom-pair stages)"
    )
    print()

    greedy = compute_rank(problem, solver="greedy")
    optimal = compute_rank(problem, solver="dp", repeater_units=256)
    tables, _ = problem.tables()
    brute = solve_rank_exhaustive(tables, repeater_units=256)

    print(f"greedy assignment:     rank {greedy.rank}")
    print(f"optimal (DP):          rank {optimal.rank}")
    print(f"exhaustive check:      rank {brute.rank}")
    print()
    print(
        "Greedy packs the two longest wires onto the top pair and pays\n"
        "the expensive repeater rate, exhausting the budget after two\n"
        "wires; the DP routes all four wires on the bottom pair where\n"
        "repeaters are cheap — the paper's rank-4-vs-rank-2 separation."
    )
    assert optimal.rank == brute.rank == 4
    assert greedy.rank == 2


if __name__ == "__main__":
    main()
