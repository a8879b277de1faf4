"""Shielding trade-offs.

The paper treats crosstalk exclusively through the Miller coupling
factor and notes (footnote 8) that the minimum value ``M = 1.0`` "can
be achieved by double-sided shielding of lines".  This module makes
that knob physical: a :class:`ShieldingPolicy` carries the effective
Miller factor and the *routing-capacity cost* of each shielding level.
A shield wire occupies a track, so double-sided shielding of every line
triples the consumed pitch.  This is the honest price of the paper's
"M = 1.0" endpoint, exposed as a capacity utilization factor that rank
studies (shielding-aware optimization) apply.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from ..errors import ConfigurationError


@dataclass(frozen=True)
class ShieldingPolicy:
    """A shielding level: its Miller factor and its routing cost.

    Attributes
    ----------
    name:
        Display name.
    miller_factor:
        Effective Miller coupling factor under this policy.
    tracks_per_signal:
        Routing tracks consumed per signal wire (1 unshielded, 2 with
        one shared shield per signal, 3 fully double-shielded).
    """

    name: str
    miller_factor: float
    tracks_per_signal: float

    def __post_init__(self) -> None:
        if self.miller_factor < 0:
            raise ConfigurationError(
                f"miller_factor must be non-negative, got {self.miller_factor!r}"
            )
        if self.tracks_per_signal < 1.0:
            raise ConfigurationError(
                f"tracks_per_signal must be >= 1, got {self.tracks_per_signal!r}"
            )

    @property
    def capacity_factor(self) -> float:
        """Fraction of routing capacity left for signals (<= 1)."""
        return 1.0 / self.tracks_per_signal


#: No shielding: worst-case simultaneous switching on both sides.
UNSHIELDED = ShieldingPolicy(
    name="unshielded", miller_factor=2.0, tracks_per_signal=1.0
)

#: One shield shared between neighbouring signals: one quiet side.
#: Effective Miller 1.5 (one switching neighbour, one grounded).
SINGLE_SHIELDED = ShieldingPolicy(
    name="single-shielded", miller_factor=1.5, tracks_per_signal=2.0
)

#: The paper's footnote-8 endpoint: grounded shields on both sides.
DOUBLE_SHIELDED = ShieldingPolicy(
    name="double-shielded", miller_factor=1.0, tracks_per_signal=3.0
)

#: The standard ladder, cheapest first.
SHIELDING_LADDER: Tuple[ShieldingPolicy, ...] = (
    UNSHIELDED,
    SINGLE_SHIELDED,
    DOUBLE_SHIELDED,
)
