"""Enumerable design spaces for architecture optimization.

A :class:`DesignSpace` describes the knobs a BEOL architect controls —
how many layer-pairs to build per tier, which dielectric class to buy,
how aggressively to shield (the achievable Miller factor) — under a
metal-layer-count budget.  It enumerates the concrete
:class:`~repro.arch.builder.ArchitectureSpec` candidates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterator, Sequence, Tuple

from ..arch.builder import ArchitectureSpec
from ..errors import ConfigurationError
from ..tech.node import TechnologyNode


@dataclass(frozen=True)
class DesignSpace:
    """Knob ranges for architecture search.

    Attributes
    ----------
    node:
        Technology node the candidates are built on.
    local_pairs:
        Candidate local layer-pair counts (>= 1 so the short-wire bulk
        always has a home).
    semi_global_pairs, global_pairs:
        Candidate tier counts.
    permittivities:
        Candidate ILD permittivity classes (e.g. oxide 3.9, FSG 3.6,
        OSG 2.8).
    miller_factors:
        Candidate effective Miller factors (2.0 unshielded down to 1.0
        double-shielded; shielding costs routing space in reality, which
        a caller can reflect through ``utilization``).
    max_metal_layers:
        Budget on total metal layers (2 per layer-pair); candidates
        exceeding it are not enumerated.
    """

    node: TechnologyNode
    local_pairs: Tuple[int, ...] = (1, 2)
    semi_global_pairs: Tuple[int, ...] = (1, 2, 3)
    global_pairs: Tuple[int, ...] = (1, 2)
    permittivities: Tuple[float, ...] = (3.9, 3.6, 2.8)
    miller_factors: Tuple[float, ...] = (2.0,)
    max_metal_layers: int = 12

    def __post_init__(self) -> None:
        for name in ("local_pairs", "semi_global_pairs", "global_pairs"):
            values = getattr(self, name)
            if not values:
                raise ConfigurationError(f"DesignSpace.{name} must be non-empty")
            if any(v < 0 for v in values):
                raise ConfigurationError(
                    f"DesignSpace.{name} must be non-negative, got {values!r}"
                )
        if min(self.local_pairs) < 1:
            raise ConfigurationError(
                "DesignSpace.local_pairs must be >= 1 (the short-wire bulk "
                "needs a local tier)"
            )
        for name in ("permittivities", "miller_factors"):
            if not getattr(self, name):
                raise ConfigurationError(f"DesignSpace.{name} must be non-empty")
        for i, k in enumerate(self.permittivities):
            if not (math.isfinite(k) and k >= 1.0):
                raise ConfigurationError(
                    f"DesignSpace.permittivities[{i}]: must be finite and "
                    f">= 1.0 (vacuum), got {k!r}"
                )
        for i, m in enumerate(self.miller_factors):
            if not (math.isfinite(m) and m > 0):
                raise ConfigurationError(
                    f"DesignSpace.miller_factors[{i}]: must be finite and > 0, "
                    f"got {m!r}"
                )
        if self.max_metal_layers < 2:
            raise ConfigurationError(
                f"max_metal_layers must be >= 2, got {self.max_metal_layers!r}"
            )

    def __iter__(self) -> Iterator[ArchitectureSpec]:
        return self.candidates()

    def candidates(self) -> Iterator[ArchitectureSpec]:
        """Enumerate all in-budget candidate specs, deterministically."""
        for local in self.local_pairs:
            for semi_global in self.semi_global_pairs:
                for global_pairs in self.global_pairs:
                    pairs = local + semi_global + global_pairs
                    if 2 * pairs > self.max_metal_layers:
                        continue
                    for k in self.permittivities:
                        for miller in self.miller_factors:
                            yield ArchitectureSpec(
                                node=self.node,
                                local_pairs=local,
                                semi_global_pairs=semi_global,
                                global_pairs=global_pairs,
                                permittivity=k,
                                miller_factor=miller,
                            )

    def size(self) -> int:
        """Number of in-budget candidates."""
        return sum(1 for _ in self.candidates())

    def neighbours(self, spec: ArchitectureSpec) -> Iterator[ArchitectureSpec]:
        """Single-knob moves from ``spec`` that stay inside the space.

        Used by hill climbing: steps to adjacent values of each knob
        (tier counts up/down one position in their candidate tuples,
        permittivity/Miller to adjacent classes).
        """

        def adjacent(values: Sequence, current) -> Iterator:
            values = sorted(set(values))
            if current in values:
                index = values.index(current)
                if index > 0:
                    yield values[index - 1]
                if index + 1 < len(values):
                    yield values[index + 1]
            else:
                yield from values

        knobs = (
            ("local_pairs", self.local_pairs),
            ("semi_global_pairs", self.semi_global_pairs),
            ("global_pairs", self.global_pairs),
            ("permittivity", self.permittivities),
            ("miller_factor", self.miller_factors),
        )
        for knob, values in knobs:
            for value in adjacent(values, getattr(spec, knob)):
                candidate = replace(spec, **{knob: value})
                if 2 * candidate.num_pairs <= self.max_metal_layers:
                    yield candidate

    def default_spec(self) -> ArchitectureSpec:
        """A starting point: the smallest candidate of the space."""
        return ArchitectureSpec(
            node=self.node,
            local_pairs=min(self.local_pairs),
            semi_global_pairs=min(self.semi_global_pairs),
            global_pairs=min(self.global_pairs),
            permittivity=max(self.permittivities),
            miller_factor=max(self.miller_factors),
        )
