"""Technology node description.

A :class:`TechnologyNode` bundles everything the rank metric needs from a
process: the metal geometry rules for the local (``M1``), semi-global
(``Mx``) and global (``Mt``) wiring tiers (the paper's Table 3), the via
rules for each tier boundary, the device parameters of the minimum
inverter, and the ITRS gate-pitch rule used to size the die.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict

from ..constants import GATE_PITCH_FACTOR
from ..errors import ConfigurationError
from .device import DeviceParameters
from .materials import Conductor, Dielectric


@dataclass(frozen=True)
class MetalRule:
    """Geometry rule for all layers of one wiring tier.

    The paper characterizes an IA by layer-pairs in which every wire has
    identical width and thickness, with constant spacing and constant ILD
    height between consecutive layer-pairs; a ``MetalRule`` is that tuple
    for one tier.

    Attributes
    ----------
    min_width:
        Minimum (and, per the paper's assumption, actual) wire width in
        metres.
    min_spacing:
        Spacing between adjacent wires in metres.
    thickness:
        Metal thickness in metres.
    ild_height:
        Height of the inter-layer dielectric between this tier's layers
        and the next, in metres.  Table 3 does not print ILD heights; the
        conventional H ~= T assumption is used as the default (pass an
        explicit value to override).
    """

    min_width: float
    min_spacing: float
    thickness: float
    ild_height: float = 0.0  # 0.0 means "default to thickness" (see __post_init__)

    def __post_init__(self) -> None:
        for attr in ("min_width", "min_spacing", "thickness"):
            value = getattr(self, attr)
            if value <= 0:
                raise ConfigurationError(
                    f"MetalRule.{attr} must be positive, got {value!r}"
                )
        if self.ild_height < 0:
            raise ConfigurationError(
                f"MetalRule.ild_height must be non-negative, got {self.ild_height!r}"
            )
        if self.ild_height == 0.0:
            object.__setattr__(self, "ild_height", self.thickness)

    @property
    def pitch(self) -> float:
        """Wire pitch: width plus spacing, in metres."""
        return self.min_width + self.min_spacing

    def scaled(self, factor: float) -> "MetalRule":
        """Uniformly scale all four geometric dimensions by ``factor``."""
        if factor <= 0:
            raise ConfigurationError(f"scale factor must be positive, got {factor!r}")
        return MetalRule(
            min_width=self.min_width * factor,
            min_spacing=self.min_spacing * factor,
            thickness=self.thickness * factor,
            ild_height=self.ild_height * factor,
        )


@dataclass(frozen=True)
class ViaRule:
    """Geometry rule for vias landing on one wiring tier.

    Attributes
    ----------
    min_width:
        Minimum via width (square vias assumed) in metres.
    enclosure:
        Metal enclosure required around the via on each side, in metres.
        The blocked footprint of one via is ``(w + 2e)^2``.
    """

    min_width: float
    enclosure: float = 0.0

    def __post_init__(self) -> None:
        if self.min_width <= 0:
            raise ConfigurationError(
                f"ViaRule.min_width must be positive, got {self.min_width!r}"
            )
        if self.enclosure < 0:
            raise ConfigurationError(
                f"ViaRule.enclosure must be non-negative, got {self.enclosure!r}"
            )

    @property
    def blocked_area(self) -> float:
        """Routing area blocked by one via, in square metres.

        This is the paper's ``v_a`` (area of a via, obtained from process
        parameters): the enclosed via footprint.
        """
        side = self.min_width + 2.0 * self.enclosure
        return side * side


#: Canonical tier names, ordered bottom (local) to top (global).
TIERS = ("local", "semi_global", "global")


@dataclass(frozen=True)
class TechnologyNode:
    """A process node: metal rules per tier, vias, devices, materials.

    Attributes
    ----------
    name:
        Display name, e.g. ``"130nm"``.
    feature_size:
        Drawn feature size in metres (e.g. ``130e-9``).
    metal_rules:
        Mapping from tier name (``"local"``, ``"semi_global"``,
        ``"global"``) to :class:`MetalRule` — the Table 3 rows ``M1``,
        ``Mx`` and ``Mt``.
    via_rules:
        Mapping from tier name to the :class:`ViaRule` of vias passing
        through that tier — the Table 3 rows ``V1``, ``Vx-1`` and
        ``Vt-1``.
    device:
        Minimum-inverter parameters used for drivers and repeaters.
    conductor:
        Wiring conductor (copper for 130/90 nm, aluminium-era for 180 nm).
    dielectric:
        Baseline inter-layer dielectric.
    gate_pitch_factor:
        Gate pitch as a multiple of ``feature_size`` (ITRS 2001 empirical
        rule: 12.6).
    """

    name: str
    feature_size: float
    metal_rules: Dict[str, MetalRule]
    via_rules: Dict[str, ViaRule]
    device: DeviceParameters
    conductor: Conductor
    dielectric: Dielectric
    gate_pitch_factor: float = GATE_PITCH_FACTOR

    def __post_init__(self) -> None:
        if self.feature_size <= 0:
            raise ConfigurationError(
                f"feature_size must be positive, got {self.feature_size!r}"
            )
        if self.gate_pitch_factor <= 0:
            raise ConfigurationError(
                f"gate_pitch_factor must be positive, got {self.gate_pitch_factor!r}"
            )
        missing = [tier for tier in TIERS if tier not in self.metal_rules]
        if missing:
            raise ConfigurationError(
                f"node {self.name!r}: missing metal rules for tiers {missing}"
            )
        missing_vias = [tier for tier in TIERS if tier not in self.via_rules]
        if missing_vias:
            raise ConfigurationError(
                f"node {self.name!r}: missing via rules for tiers {missing_vias}"
            )

    @property
    def gate_pitch(self) -> float:
        """Nominal gate pitch in metres (before repeater-area inflation).

        The paper computes die area from ``g^2 * N`` with
        ``g = 12.6 x tech node``; this is that ``g``.
        """
        return self.gate_pitch_factor * self.feature_size

    def metal(self, tier: str) -> MetalRule:
        """Metal rule for a tier name, with a helpful error for typos."""
        try:
            return self.metal_rules[tier]
        except KeyError:
            raise ConfigurationError(
                f"node {self.name!r} has no tier {tier!r}; "
                f"known tiers: {sorted(self.metal_rules)}"
            ) from None

    def via(self, tier: str) -> ViaRule:
        """Via rule for a tier name, with a helpful error for typos."""
        try:
            return self.via_rules[tier]
        except KeyError:
            raise ConfigurationError(
                f"node {self.name!r} has no via tier {tier!r}; "
                f"known tiers: {sorted(self.via_rules)}"
            ) from None

    def with_device(self, device: DeviceParameters) -> "TechnologyNode":
        """Copy of this node with different minimum-inverter parameters."""
        return replace(self, device=device)
