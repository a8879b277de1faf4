"""The per-layer-pair RC bundle consumed by the delay model.

:class:`WireRC` is the meeting point of the technology model and the
delay model: everything downstream (optimal repeater sizing, segment
delay, rank) reads interconnect electricals exclusively through it.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigurationError
from ..tech.materials import Conductor, Dielectric
from ..tech.node import MetalRule
from .capacitance import total_capacitance_per_length
from .resistance import resistance_per_length


@dataclass(frozen=True)
class WireRC:
    """Per-unit-length electricals of a wire on one layer-pair.

    Attributes
    ----------
    resistance:
        r-bar in ohms/metre.
    capacitance:
        Effective switching c-bar in farads/metre (ground + Miller-scaled
        coupling).
    """

    resistance: float
    capacitance: float

    def __post_init__(self) -> None:
        if self.resistance <= 0:
            raise ConfigurationError(
                f"per-length resistance must be positive, got {self.resistance!r}"
            )
        if self.capacitance <= 0:
            raise ConfigurationError(
                f"per-length capacitance must be positive, got {self.capacitance!r}"
            )

    @property
    def rc_product(self) -> float:
        """Distributed RC constant r-bar * c-bar in s/m^2."""
        return self.resistance * self.capacitance

    def scaled(self, r_factor: float = 1.0, c_factor: float = 1.0) -> "WireRC":
        """Return a copy with resistance and/or capacitance scaled.

        Used by ablation studies (e.g. "what if capacitance dropped 20%")
        without re-running geometric extraction.
        """
        if r_factor <= 0 or c_factor <= 0:
            raise ConfigurationError(
                f"scale factors must be positive, got r={r_factor!r} c={c_factor!r}"
            )
        return WireRC(
            resistance=self.resistance * r_factor,
            capacitance=self.capacitance * c_factor,
        )


def extract_wire_rc(
    rule: MetalRule,
    conductor: Conductor,
    dielectric: Dielectric,
    miller_factor: float,
) -> WireRC:
    """Extract the :class:`WireRC` of a tier from geometry and materials.

    Parameters
    ----------
    rule:
        Tier geometry (width, spacing, thickness, ILD height).
    conductor:
        Wiring material (effective resistivity).
    dielectric:
        Inter-layer dielectric (relative permittivity — the Table 4 ``K``
        knob).
    miller_factor:
        Miller coupling factor (the Table 4 ``M`` knob).
    """
    return WireRC(
        resistance=resistance_per_length(rule, conductor),
        capacitance=total_capacitance_per_length(rule, dielectric, miller_factor),
    )
