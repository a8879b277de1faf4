"""Shared fixtures for the test suite.

Fixtures are deliberately small: solver cross-validation runs at a few
wires, and integration tests use designs of 50k-200k gates so the whole
suite stays fast while still exercising the full pipeline.
"""

from __future__ import annotations

import os

import pytest

try:
    from hypothesis import settings as _hyp_settings

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - hypothesis is an optional extra
    HAVE_HYPOTHESIS = False

if HAVE_HYPOTHESIS:
    # Two profiles: "dev" keeps property tests fast and randomized for
    # local exploration; "ci" (loaded when CI=1) is derandomized — the
    # example sequence is derived from each test's code, so CI runs are
    # reproducible — and digs deeper with more examples.  print_blob
    # makes any failure print its @reproduce_failure blob, the exact
    # recipe to replay the failing example locally.
    _hyp_settings.register_profile(
        "dev", max_examples=25, deadline=None, print_blob=True
    )
    _hyp_settings.register_profile(
        "ci",
        max_examples=200,
        deadline=None,
        derandomize=True,
        print_blob=True,
    )
    _hyp_settings.load_profile("ci" if os.environ.get("CI") else "dev")

from repro import (
    ArchitectureSpec,
    DieModel,
    RankProblem,
    build_architecture,
    get_node,
)
from repro.core.scenarios import baseline_problem
from repro.wld.synthetic import wld_from_pairs


@pytest.fixture(scope="session")
def node130():
    """The 130 nm preset node (the paper's baseline)."""
    return get_node("130nm")


@pytest.fixture(scope="session")
def node180():
    return get_node("180nm")


@pytest.fixture(scope="session")
def node90():
    return get_node("90nm")


@pytest.fixture(scope="session")
def arch130(node130):
    """Baseline 130 nm architecture: 1 global + 2 semi-global + 1 local."""
    return build_architecture(ArchitectureSpec(node=node130))


@pytest.fixture(scope="session")
def die130(node130):
    """1M-gate die at the baseline 0.4 repeater fraction."""
    return DieModel(node=node130, gate_count=1_000_000, repeater_fraction=0.4)


def make_tiny_problem(
    node,
    lengths,
    gate_count=10_000,
    repeater_fraction=0.2,
    clock_frequency=5.0e8,
    local_pairs=1,
    semi_global_pairs=0,
    global_pairs=1,
    **kwargs,
):
    """A small unit-count problem for solver cross-validation."""
    arch = build_architecture(
        ArchitectureSpec(
            node=node,
            local_pairs=local_pairs,
            semi_global_pairs=semi_global_pairs,
            global_pairs=global_pairs,
        )
    )
    die = DieModel(
        node=node, gate_count=gate_count, repeater_fraction=repeater_fraction
    )
    wld = wld_from_pairs((float(l), 1) for l in lengths)
    return RankProblem(
        arch=arch, die=die, wld=wld, clock_frequency=clock_frequency, **kwargs
    )


def solve_rank_oracle(
    tables, repeater_units, collect_witness=False, deadline=None
):
    """The rank DP run on the scalar pair loop instead of the NumPy
    kernel: :func:`~repro.core.dp.solve_rank_dp` with
    :func:`tests.dp_oracle.solve_pairs_python` patched in where it looks
    the kernel up, so the discretization and fits check are the same
    (the oracle walks its witness from its own dense parents) and its
    :class:`~repro.core.dp.RawSolution` compares field for field with
    the kernel's."""
    import repro.core.dp_numpy as dp_numpy
    from repro.core.dp import solve_rank_dp

    from .dp_oracle import solve_pairs_python

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dp_numpy, "solve_pairs_numpy", solve_pairs_python)
        return solve_rank_dp(
            tables,
            repeater_units=repeater_units,
            collect_witness=collect_witness,
            deadline=deadline,
        )


@pytest.fixture
def tiny_problem(node130):
    """Five distinct wires, two layer-pairs: exhaustive-checkable."""
    return make_tiny_problem(node130, [1200, 700, 300, 90, 25])


@pytest.fixture(scope="session")
def small_baseline():
    """A 100k-gate 130 nm baseline — full pipeline, fast to solve."""
    return baseline_problem("130nm", 100_000)


@pytest.fixture(scope="session")
def low_k_baseline():
    """``small_baseline`` on a K=2.8, M=1.0 stack: variants of it must
    keep these values, not fall back to the Table 2 ones."""
    return baseline_problem("130nm", 100_000, permittivity=2.8, miller_factor=1.0)
