#!/usr/bin/env python3
"""The Section 6 programme: co-optimizing a BEOL against the rank metric.

The paper concludes that "it is not possible to enable future MPU-class
designs by material improvements alone" and proposes optimizing
interconnect architectures directly against the rank metric.  This
example runs that search for a 130 nm design: it searches a design
space (tier allocations x dielectric classes x shielding levels) for
the highest-rank stack under a metal-layer budget, and extracts the
rank-vs-layers Pareto frontier.

Run:

    python examples/beol_cooptimization.py [--gates N]
"""

import argparse

from repro.core.scenarios import baseline_problem
from repro.optimize import DesignSpace, optimize_architecture
from repro.reporting.text import format_table


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--gates", type=int, default=400_000)
    args = parser.parse_args()

    problem = baseline_problem("130nm", args.gates)
    options = dict(bunch_size=5000, repeater_units=512)

    space = DesignSpace(
        node=problem.die.node,
        local_pairs=(1, 2),
        semi_global_pairs=(1, 2, 3),
        global_pairs=(1, 2),
        permittivities=(3.9, 3.6, 2.8),
        miller_factors=(2.0, 1.5, 1.0),
        max_metal_layers=12,
    )
    print(f"searching {space.size()} candidate stacks ...")
    outcome = optimize_architecture(problem, space, exhaustive_limit=200, **options)

    rows = [
        (c.label(), c.metal_layers, c.result.rank, f"{c.normalized:.6f}")
        for c in outcome.pareto
    ]
    print(
        format_table(
            ("stack", "layers", "rank", "normalized"),
            rows,
            title="Rank-vs-layers Pareto frontier",
        )
    )
    best = outcome.best
    print(f"\nbest stack: {best.label()}  ->  {best.result.summary()}")


if __name__ == "__main__":
    main()
