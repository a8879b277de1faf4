"""Die area, gate pitch, and repeater budget model.

Implements the paper's Section 5.2 area bookkeeping (Eq. (6)):

* die area due to gates is ``g^2 * N`` with the ITRS gate pitch
  ``g = 12.6 x tech node``;
* the repeater allocation ``A_R`` is a *fraction* of the final die area
  and is added on top of the gate area, so
  ``A_d = gate_area / (1 - fraction)`` and ``A_R = fraction * A_d``;
* gates are then redistributed evenly over the inflated die, giving the
  *adjusted* gate pitch ``sqrt(A_d / N)`` used to convert WLD lengths
  (which are in gate pitches) to metres.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import ArrayLike

from ..errors import ConfigurationError
from ..tech.node import TechnologyNode


@dataclass(frozen=True)
class DieModel:
    """Die-level areas for a design on a technology node.

    Attributes
    ----------
    node:
        The technology node (supplies the nominal gate pitch).
    gate_count:
        Number of gates ``N`` in the design.
    repeater_fraction:
        Maximum repeater area as a fraction of die area (the paper's
        Table 4 column ``R``; baseline 0.4).  Must lie in ``[0, 1)``.
    """

    node: TechnologyNode
    gate_count: int
    repeater_fraction: float

    def __post_init__(self) -> None:
        if self.gate_count <= 0:
            raise ConfigurationError(
                f"gate_count must be positive, got {self.gate_count!r}"
            )
        if not 0.0 <= self.repeater_fraction < 1.0:
            raise ConfigurationError(
                f"repeater_fraction must be in [0, 1), got {self.repeater_fraction!r}"
            )

    @property
    def gate_area(self) -> float:
        """Die area due to gates alone: ``g^2 * N`` (m^2)."""
        g = self.node.gate_pitch
        return g * g * self.gate_count

    @property
    def die_area(self) -> float:
        """Actual die area ``A_d`` after adding the repeater allocation.

        From Eq. (6): ``A_d = A_R + gate_area`` with
        ``A_R = fraction * A_d``, hence ``A_d = gate_area / (1 - fraction)``.
        """
        return self.gate_area / (1.0 - self.repeater_fraction)

    @property
    def repeater_area(self) -> float:
        """Maximum repeater area ``A_R`` (m^2)."""
        return self.repeater_fraction * self.die_area

    @property
    def adjusted_gate_pitch(self) -> float:
        """Gate pitch after distributing gates evenly over ``A_d`` (m).

        This is the pitch that converts WLD lengths (in gate pitches) to
        physical lengths.
        """
        return math.sqrt(self.die_area / self.gate_count)

    def wire_length(self, length_in_pitches: ArrayLike) -> np.ndarray:
        """Convert WLD lengths in gate pitches (scalar or array) to metres."""
        pitches = np.asarray(length_in_pitches, dtype=float)
        if (pitches < 0).any():
            raise ConfigurationError("lengths in pitches must be non-negative")
        return pitches * self.adjusted_gate_pitch

    def with_repeater_fraction(self, fraction: float) -> "DieModel":
        """Copy with a different repeater fraction (the ``R`` sweep knob).

        Note that changing the fraction also changes die area and the
        adjusted gate pitch, exactly as in the paper's area model.
        """
        return DieModel(
            node=self.node,
            gate_count=self.gate_count,
            repeater_fraction=fraction,
        )
