"""Wire capacitance per unit length.

The effective capacitance per unit length of a wire in a layer-pair is

    c = 2 * c_ground + M * 2 * c_coupling

where ``c_ground = eps * (W / H + 0.3)`` is the capacitance to one of the
routing planes above and below (parallel-plate area term plus a constant
fringe allowance), ``c_coupling = eps * T / S`` is the line-to-line
capacitance to *one* same-layer neighbour, and ``M`` is the Miller coupling
factor that models simultaneous switching of both neighbours (the paper's
Table 4 column ``M``; 2.0 worst case, 1.0 with double-sided shielding).

The low fringe allowance keeps line-to-line coupling at ~80% of the total
for minimum-pitch wiring, the regime implied by the paper's observation
that a 42% Miller-factor reduction buys the same rank improvement as a 38%
permittivity reduction (both knobs must act on nearly the same
capacitance share).  The sum is exactly linear in permittivity, which is
what makes the paper's K and M sweeps directly comparable.
"""

from __future__ import annotations

from ..errors import ConfigurationError
from ..tech.materials import Dielectric
from ..tech.node import MetalRule

#: Dimensionless per-edge fringe allowance added to the plate term of
#: ``c_ground``.
FRINGE_FACTOR = 0.3


def total_capacitance_per_length(
    rule: MetalRule,
    dielectric: Dielectric,
    miller_factor: float,
) -> float:
    """Effective switching capacitance per unit length (F/m).

    This is the paper's c-bar for a layer-pair: both planes plus both
    Miller-scaled neighbours.
    """
    if miller_factor < 0:
        raise ConfigurationError(
            f"Miller coupling factor must be non-negative, got {miller_factor!r}"
        )
    if rule.ild_height <= 0:
        raise ConfigurationError(
            f"ILD height must be positive for capacitance extraction, "
            f"got {rule.ild_height!r}"
        )
    eps = dielectric.permittivity
    ground = eps * (rule.min_width / rule.ild_height + FRINGE_FACTOR)
    coupling = eps * rule.thickness / rule.min_spacing
    return 2.0 * ground + miller_factor * 2.0 * coupling
