"""Conductor and dielectric materials.

The rank metric is sensitive to two material knobs: conductor resistivity
(through per-unit-length resistance) and inter-layer-dielectric relative
permittivity (through per-unit-length capacitance).  The paper's Table 4
column ``K`` sweeps ILD permittivity from 3.9 (SiO2) down to 1.8
(aggressive low-k / airgap territory); this module provides the material
value objects those sweeps scale.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..constants import (
    EPS0,
    K_SILICON_DIOXIDE,
    RESISTIVITY_ALUMINIUM,
    RESISTIVITY_COPPER,
)
from ..errors import ConfigurationError


@dataclass(frozen=True)
class Conductor:
    """A wiring conductor.

    Attributes
    ----------
    name:
        Human-readable material name.
    resistivity:
        Effective bulk resistivity in ohm-metres.  "Effective" means it may
        fold in barrier/liner and surface-scattering penalties so that
        ``rho / (width * thickness)`` reproduces realistic per-unit-length
        resistance for the node.
    """

    name: str
    resistivity: float

    def __post_init__(self) -> None:
        if self.resistivity <= 0:
            raise ConfigurationError(
                f"conductor {self.name!r}: resistivity must be positive, "
                f"got {self.resistivity!r}"
            )


@dataclass(frozen=True)
class Dielectric:
    """An inter-layer dielectric.

    Attributes
    ----------
    name:
        Human-readable material name.
    relative_permittivity:
        Relative permittivity (the paper's ``k``); must be >= 1 because no
        passive dielectric is below vacuum.
    """

    name: str
    relative_permittivity: float

    def __post_init__(self) -> None:
        if self.relative_permittivity < 1.0:
            raise ConfigurationError(
                f"dielectric {self.name!r}: relative permittivity must be "
                f">= 1.0, got {self.relative_permittivity!r}"
            )

    @property
    def permittivity(self) -> float:
        """Absolute permittivity in farads per metre."""
        return self.relative_permittivity * EPS0

    def scaled(self, relative_permittivity: float, name: str | None = None) -> "Dielectric":
        """Return a copy with a different relative permittivity.

        This is the primitive behind the paper's Table 4 ``K`` sweep: the
        geometry stays fixed and only the ILD permittivity moves.
        """
        return replace(
            self,
            name=name if name is not None else f"{self.name}(k={relative_permittivity:g})",
            relative_permittivity=relative_permittivity,
        )


#: Damascene copper with barrier penalty (effective resistivity).
COPPER = Conductor(name="copper", resistivity=RESISTIVITY_COPPER)

#: Aluminium interconnect (180 nm-era back end).
ALUMINIUM = Conductor(name="aluminium", resistivity=RESISTIVITY_ALUMINIUM)

#: Thermal / CVD silicon dioxide, the paper's baseline ILD (k = 3.9).
SIO2 = Dielectric(name="SiO2", relative_permittivity=K_SILICON_DIOXIDE)

#: Fluorinated silicate glass -class low-k (k = 3.6).
LOW_K_36 = Dielectric(name="FSG", relative_permittivity=3.6)

#: Organosilicate-glass-class low-k (k = 2.8).
LOW_K_28 = Dielectric(name="OSG", relative_permittivity=2.8)
