"""The interconnect architecture: an ordered stack of layer-pairs.

Ordering convention (used consistently across the whole library):
**index 0 is the topmost layer-pair** — the same orientation as the
paper's DP, which assigns the longest wires to pair 1 (topmost) and
proceeds downward.  The bottom pair is ``pairs[-1]``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Optional, Tuple

from ..errors import ConfigurationError
from ..units import to_um
from .layer import LayerPair

if TYPE_CHECKING:
    from .builder import ArchitectureSpec


@dataclass(frozen=True)
class InterconnectArchitecture:
    """An IA: layer-pairs ordered top (global) to bottom (local).

    Attributes
    ----------
    name:
        Display name, e.g. ``"130nm/L1-SG2-G1"``.
    pairs:
        Layer-pairs, topmost first.  The paper's ``m`` is ``len(pairs)``.
    spec:
        The :class:`~repro.arch.builder.ArchitectureSpec` the stack was
        built from (``None`` for a stack assembled by hand); variants
        of a problem are rebuilt from it.
    """

    name: str
    pairs: Tuple[LayerPair, ...]
    spec: Optional["ArchitectureSpec"] = None

    def __post_init__(self) -> None:
        if not self.pairs:
            raise ConfigurationError(
                f"architecture {self.name!r} must contain at least one layer-pair"
            )
        object.__setattr__(self, "pairs", tuple(self.pairs))

    def __len__(self) -> int:
        return len(self.pairs)

    def __iter__(self) -> Iterator[LayerPair]:
        return iter(self.pairs)

    def __getitem__(self, index: int) -> LayerPair:
        return self.pairs[index]

    @property
    def num_pairs(self) -> int:
        """The paper's ``m``: number of layer-pairs."""
        return len(self.pairs)

    @property
    def top(self) -> LayerPair:
        """The topmost (coarsest, global) layer-pair."""
        return self.pairs[0]

    def pair(self, index: int) -> LayerPair:
        """Layer-pair by 0-based index from the top, with range checking."""
        if not 0 <= index < len(self.pairs):
            raise ConfigurationError(
                f"layer-pair index {index} out of range for architecture "
                f"{self.name!r} with {len(self.pairs)} pairs"
            )
        return self.pairs[index]

    def describe(self) -> str:
        """One-line human-readable stack summary, top to bottom."""
        parts = [
            f"{p.name}(W={to_um(p.metal.min_width):.3f}um, "
            f"S={to_um(p.metal.min_spacing):.3f}um, "
            f"T={to_um(p.metal.thickness):.3f}um)"
            for p in self.pairs
        ]
        return f"{self.name}: " + " / ".join(parts)
