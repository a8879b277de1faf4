"""Build interconnect architectures from technology nodes.

An :class:`ArchitectureSpec` captures the paper's Table 2 configuration —
how many layer-pairs per tier, which node, the ILD permittivity and the
Miller coupling factor — and :func:`build_architecture` extracts the RC of
each pair and assembles the ordered stack (global pairs on top, local
pairs at the bottom).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Tuple

from ..errors import ConfigurationError
from ..rc.models import extract_wire_rc
from ..tech.node import TechnologyNode
from .layer import LayerPair
from .stack import InterconnectArchitecture


@dataclass(frozen=True)
class ArchitectureSpec:
    """Declarative description of an IA to build.

    Attributes
    ----------
    node:
        Technology node supplying geometry, materials, and devices.
    local_pairs:
        Number of layer-pairs built from the node's ``M1`` (local) rules.
        The paper's Table 2 lists only semi-global and global pairs; the
        local pair carrying the short-wire bulk of the WLD is implicit —
        default 1.
    semi_global_pairs:
        Number of pairs from the ``Mx`` rules (paper baseline: 2).
    global_pairs:
        Number of pairs from the ``Mt`` rules (paper baseline: 1).
    miller_factor:
        Miller coupling factor applied to coupling capacitance (paper
        baseline: 2.0).
    permittivity:
        ILD relative permittivity override; ``None`` keeps the node's
        dielectric (paper baseline: 3.9).
    tier_scaling:
        Optional per-tier uniform geometry scale factors, e.g.
        ``(("global", 1.5),)`` for 50% fatter/taller global wires — the
        geometric-parameter knob of the paper's introduction ("impacts
        of geometric parameters").  Stored as a tuple of pairs so the
        spec stays hashable-by-value and immutable.
    """

    node: TechnologyNode
    local_pairs: int = 1
    semi_global_pairs: int = 2
    global_pairs: int = 1
    miller_factor: float = 2.0
    permittivity: Optional[float] = None
    tier_scaling: Tuple[Tuple[str, float], ...] = ()

    def __post_init__(self) -> None:
        for attr in ("local_pairs", "semi_global_pairs", "global_pairs"):
            value = getattr(self, attr)
            if value < 0:
                raise ConfigurationError(
                    f"ArchitectureSpec.{attr} must be non-negative, got {value!r}"
                )
        if self.local_pairs + self.semi_global_pairs + self.global_pairs == 0:
            raise ConfigurationError(
                "ArchitectureSpec must request at least one layer-pair"
            )
        if self.miller_factor < 0:
            raise ConfigurationError(
                f"miller_factor must be non-negative, got {self.miller_factor!r}"
            )
        if self.permittivity is not None and self.permittivity < 1.0:
            raise ConfigurationError(
                f"permittivity must be >= 1.0, got {self.permittivity!r}"
            )
        for tier, factor in self.tier_scaling:
            if tier not in ("local", "semi_global", "global"):
                raise ConfigurationError(
                    f"tier_scaling names unknown tier {tier!r}"
                )
            if factor <= 0:
                raise ConfigurationError(
                    f"tier_scaling factor for {tier!r} must be positive, "
                    f"got {factor!r}"
                )

    @property
    def num_pairs(self) -> int:
        """Total number of layer-pairs the spec will build."""
        return self.local_pairs + self.semi_global_pairs + self.global_pairs

    def with_tier_scaling(self, tier: str, factor: float) -> "ArchitectureSpec":
        """Copy with one tier's geometry uniformly scaled by ``factor``."""
        scaling = tuple(
            (name, value) for name, value in self.tier_scaling if name != tier
        ) + ((tier, factor),)
        return replace(self, tier_scaling=scaling)

    def scale_for(self, tier: str) -> float:
        """Geometry scale factor applied to a tier (1.0 if unscaled)."""
        for name, value in self.tier_scaling:
            if name == tier:
                return value
        return 1.0


def build_architecture(spec: ArchitectureSpec) -> InterconnectArchitecture:
    """Materialize an :class:`InterconnectArchitecture` from a spec.

    Pairs are stacked global → semi-global → local from top to bottom,
    matching the paper's "longer wires on upper layer-pairs" orientation.
    Each pair's RC is extracted once here; downstream code never touches
    geometry again.  The architecture keeps ``spec``, so a variant (a
    sweep point, a corner) rebuilds from it with one knob changed.
    """
    node = spec.node
    dielectric = (
        node.dielectric
        if spec.permittivity is None
        else node.dielectric.scaled(spec.permittivity)
    )

    pairs: List[LayerPair] = []

    def add_pairs(tier: str, count: int) -> None:
        metal = node.metal(tier)
        scale = spec.scale_for(tier)
        if scale != 1.0:
            metal = metal.scaled(scale)
        via = node.via(tier)
        rc = extract_wire_rc(metal, node.conductor, dielectric, spec.miller_factor)
        for index in range(count):
            pairs.append(
                LayerPair(
                    name=f"{tier}-{index + 1}",
                    tier=tier,
                    metal=metal,
                    via=via,
                    rc=rc,
                )
            )

    add_pairs("global", spec.global_pairs)
    add_pairs("semi_global", spec.semi_global_pairs)
    add_pairs("local", spec.local_pairs)

    name = (
        f"{node.name}/G{spec.global_pairs}-SG{spec.semi_global_pairs}"
        f"-L{spec.local_pairs}(k={dielectric.relative_permittivity:g},"
        f"M={spec.miller_factor:g})"
    )
    return InterconnectArchitecture(name=name, pairs=tuple(pairs), spec=spec)
