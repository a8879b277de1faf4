"""The discrete wire length distribution.

A :class:`WireLengthDistribution` is a sequence of *groups*
``(length, count)`` with lengths in **gate pitches** (dimensionless; the
die model converts to metres) held in non-increasing length order.  That
order *is* the paper's rank order (Definition 1: the rank of a wire is
its index in the WLD sorted by non-increasing length), so "the first
``i`` wires" always means the ``i`` longest.

Groups with equal lengths may repeat (bunching produces that); counts are
positive integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Tuple

import numpy as np

from ..errors import WLDError


@dataclass(frozen=True)
class WireLengthDistribution:
    """Length-sorted wire groups.

    Attributes
    ----------
    lengths:
        Group lengths in gate pitches, non-increasing.  Float-valued so
        that binning (which replaces a group by its mean length) stays
        exact.
    counts:
        Positive integer wire count per group.
    """

    lengths: np.ndarray
    counts: np.ndarray

    def __post_init__(self) -> None:
        lengths = np.asarray(self.lengths, dtype=float)
        counts = np.asarray(self.counts, dtype=np.int64)
        if lengths.ndim != 1 or counts.ndim != 1:
            raise WLDError("lengths and counts must be one-dimensional")
        if lengths.shape != counts.shape:
            raise WLDError(
                f"lengths and counts must have equal size, got "
                f"{lengths.shape} vs {counts.shape}"
            )
        if lengths.size and np.any(lengths <= 0):
            raise WLDError("all wire lengths must be positive")
        if counts.size and np.any(counts <= 0):
            raise WLDError("all group counts must be positive integers")
        if lengths.size > 1 and np.any(np.diff(lengths) > 0):
            raise WLDError("lengths must be non-increasing (rank order)")
        lengths.setflags(write=False)
        counts.setflags(write=False)
        object.__setattr__(self, "lengths", lengths)
        object.__setattr__(self, "counts", counts)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def from_groups(
        cls, groups: Iterable[Tuple[float, int]]
    ) -> "WireLengthDistribution":
        """Build from ``(length, count)`` pairs in any order.

        Pairs are sorted into rank order; groups with zero count are
        dropped; duplicate lengths are merged.
        """
        filtered = [(float(l), int(c)) for l, c in groups if int(c) != 0]
        for length, count in filtered:
            if count < 0:
                raise WLDError(f"negative count {count} for length {length}")
        merged: dict = {}
        for length, count in filtered:
            merged[length] = merged.get(length, 0) + count
        ordered = sorted(merged.items(), key=lambda item: -item[0])
        lengths = np.array([l for l, _ in ordered], dtype=float)
        counts = np.array([c for _, c in ordered], dtype=np.int64)
        return cls(lengths=lengths, counts=counts)

    @classmethod
    def empty(cls) -> "WireLengthDistribution":
        """The empty distribution (zero groups, zero wires)."""
        return cls(
            lengths=np.array([], dtype=float), counts=np.array([], dtype=np.int64)
        )

    # ------------------------------------------------------------------
    # Basic queries
    # ------------------------------------------------------------------

    @property
    def num_groups(self) -> int:
        """Number of ``(length, count)`` groups."""
        return int(self.lengths.size)

    @property
    def total_wires(self) -> int:
        """The paper's ``n``: total number of wires."""
        return int(self.counts.sum()) if self.counts.size else 0

    @property
    def total_length(self) -> float:
        """Sum of all wire lengths, in gate pitches."""
        if not self.lengths.size:
            return 0.0
        return float(np.dot(self.lengths, self.counts))

    @property
    def max_length(self) -> float:
        """The paper's ``l_max`` (longest wire), in gate pitches."""
        if not self.lengths.size:
            raise WLDError("empty WLD has no maximum length")
        return float(self.lengths[0])

    @property
    def min_length(self) -> float:
        """Shortest wire length, in gate pitches."""
        if not self.lengths.size:
            raise WLDError("empty WLD has no minimum length")
        return float(self.lengths[-1])

    @property
    def mean_length(self) -> float:
        """Count-weighted mean wire length, in gate pitches."""
        total = self.total_wires
        if total == 0:
            raise WLDError("empty WLD has no mean length")
        return self.total_length / total

    def __len__(self) -> int:
        return self.num_groups

    def __iter__(self) -> Iterator[Tuple[float, int]]:
        for length, count in zip(self.lengths, self.counts):
            yield float(length), int(count)

    def group(self, index: int) -> Tuple[float, int]:
        """The ``(length, count)`` group at a 0-based rank-order index."""
        if not 0 <= index < self.num_groups:
            raise WLDError(
                f"group index {index} out of range for {self.num_groups} groups"
            )
        return float(self.lengths[index]), int(self.counts[index])

    # ------------------------------------------------------------------
    # Rank-order slices
    # ------------------------------------------------------------------

    def prefix(self, num_groups: int) -> "WireLengthDistribution":
        """The sub-distribution of the ``num_groups`` longest groups."""
        if not 0 <= num_groups <= self.num_groups:
            raise WLDError(
                f"group prefix {num_groups} out of range for "
                f"{self.num_groups} groups"
            )
        return WireLengthDistribution(
            lengths=self.lengths[:num_groups].copy(),
            counts=self.counts[:num_groups].copy(),
        )

    def suffix(self, num_groups_skipped: int) -> "WireLengthDistribution":
        """The sub-distribution after skipping the longest groups."""
        if not 0 <= num_groups_skipped <= self.num_groups:
            raise WLDError(
                f"group prefix {num_groups_skipped} out of range for "
                f"{self.num_groups} groups"
            )
        return WireLengthDistribution(
            lengths=self.lengths[num_groups_skipped:].copy(),
            counts=self.counts[num_groups_skipped:].copy(),
        )

    def describe(self) -> str:
        """Multi-line human-readable summary."""
        if self.num_groups == 0:
            return "WLD: empty"
        return (
            f"WLD: {self.total_wires} wires in {self.num_groups} groups, "
            f"lengths [{self.min_length:g}, {self.max_length:g}] pitches, "
            f"mean {self.mean_length:.3f}, total {self.total_length:.3g}"
        )
