"""Rent's-rule utilities.

Rent's rule relates the number of external terminals ``T`` of a logic
block to its gate count ``N``: ``T = k * N^p`` with Rent coefficient
``k`` (average terminals per gate) and Rent exponent ``p``.  The Davis
WLD model is driven by these parameters together with the average
point-to-point fanout.
"""

from __future__ import annotations

from ..errors import WLDError

#: Conventional average terminals per gate for random logic.
DEFAULT_RENT_COEFFICIENT = 4.0

#: The paper's Rent exponent for all experiments.
DEFAULT_RENT_EXPONENT = 0.6

#: Conventional average fanout for random logic.
DEFAULT_FANOUT = 3.0


def _validate(gate_count: int, coefficient: float, exponent: float) -> None:
    if gate_count <= 0:
        raise WLDError(f"gate count must be positive, got {gate_count!r}")
    if coefficient <= 0:
        raise WLDError(f"Rent coefficient must be positive, got {coefficient!r}")
    if not 0.0 < exponent < 1.0:
        raise WLDError(f"Rent exponent must be in (0, 1), got {exponent!r}")


def average_fanout(fanout: float = DEFAULT_FANOUT) -> float:
    """Validated average point-to-point fanout (must be positive)."""
    if fanout <= 0:
        raise WLDError(f"fanout must be positive, got {fanout!r}")
    return fanout


def fanout_fraction(fanout: float = DEFAULT_FANOUT) -> float:
    """Davis's ``alpha = f.o. / (f.o. + 1)``.

    The fraction of terminals that are point-to-point interconnect
    sources after multi-terminal nets are decomposed.
    """
    f = average_fanout(fanout)
    return f / (f + 1.0)


def total_connections(
    gate_count: int,
    coefficient: float = DEFAULT_RENT_COEFFICIENT,
    exponent: float = DEFAULT_RENT_EXPONENT,
    fanout: float = DEFAULT_FANOUT,
) -> float:
    """Expected total point-to-point connection count of the design.

    Davis Part 1's total interconnect count
    ``T_total = alpha * k * N * (1 - N^(p-1))``; the Davis density is
    normalized to integrate to this value.
    """
    _validate(gate_count, coefficient, exponent)
    alpha = fanout_fraction(fanout)
    return alpha * coefficient * gate_count * (1.0 - gate_count ** (exponent - 1.0))
