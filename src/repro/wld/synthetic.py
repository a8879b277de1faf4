"""Hand-built wire length distributions.

Used by the Figure 2 greedy-vs-optimal counterexample and as small
deterministic stand-ins for the Davis model when exercising solvers
exhaustively.
"""

from __future__ import annotations

from typing import Iterable, Tuple

from .distribution import WireLengthDistribution


def wld_from_pairs(pairs: Iterable[Tuple[float, int]]) -> WireLengthDistribution:
    """Build a WLD from ``(length, count)`` pairs in any order."""
    return WireLengthDistribution.from_groups(pairs)
