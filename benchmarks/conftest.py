"""Shared benchmark configuration.

Every benchmark regenerates one experiment from DESIGN.md's index
(E1-E11) and prints the paper-shaped rows next to the paper's values.

Scale knob: ``REPRO_BENCH_GATES`` (default 1_000_000 — the paper's
baseline design).  The assertions hold at the paper's 1M gates only: at
a smaller design (200000 or 100000 gates)
``bench_policies.py::test_pair_capacity_ablation`` and
``bench_roadmap.py::test_materials_alone_cannot_scale`` fail, because
their claims are the paper's claims about its 1M-gate baseline.  Heavy
benchmarks run exactly one round via ``benchmark.pedantic``; the whole
directory takes seconds at the default scale.
"""

from __future__ import annotations

import os

import pytest

from repro.api import baseline_problem

#: Gate count used by the table/figure benchmarks.
BENCH_GATES = int(os.environ.get("REPRO_BENCH_GATES", "1000000"))

#: Coarsening and discretization used everywhere (paper: bunch 10000).
BENCH_OPTIONS = dict(bunch_size=10_000, repeater_units=512)


@pytest.fixture(scope="session")
def bench_baseline():
    """The Table 2 baseline problem at benchmark scale."""
    return baseline_problem("130nm", BENCH_GATES)


def run_once(benchmark, fn):
    """Run ``fn`` exactly once under the benchmark clock."""
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)
