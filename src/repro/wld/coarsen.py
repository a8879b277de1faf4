"""Instance-size reduction: bunching and binning (paper Section 5.1).

*Bunching* splits each length's wire count into bunches of at most
``bunch_size`` wires; assignment then proceeds bunch-at-a-time instead of
wire-at-a-time.  The paper bounds the rank error by the maximum bunch
size (the rank boundary can only be misplaced within the bunch that
straddles it).

*Binning* (the paper's footnote 7) replaces a group of wires of nearby
lengths by a single group at their mean length with the summed count —
e.g. lengths 5996..6000 with counts 3,2,2,1,1 become one group of length
5998 and count 9.  Binning is orthogonal to bunching and both preserve
the total wire count exactly.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..errors import WLDError
from .distribution import WireLengthDistribution


def bunch_wld(
    wld: WireLengthDistribution, bunch_size: int
) -> WireLengthDistribution:
    """Split every group into bunches of at most ``bunch_size`` wires.

    For a group of 100 wires and ``bunch_size`` 40 the result holds three
    groups of 40, 40 and 20 wires at the same length — exactly the
    paper's example.  The output is still a valid rank-ordered WLD (equal
    lengths repeat); total wire count is preserved.
    """
    if bunch_size <= 0:
        raise WLDError(f"bunch size must be positive, got {bunch_size!r}")
    if wld.num_groups:
        # A bunch larger than every group splits none; capping it keeps
        # the divisor inside int64.
        bunch_size = min(bunch_size, int(wld.counts.max()))
    full, remainder = np.divmod(wld.counts, bunch_size)
    partial = remainder > 0
    bunches = full + partial
    counts = np.full(int(bunches.sum()), bunch_size, dtype=np.int64)
    # A group's partial bunch, if any, is its last.
    counts[np.cumsum(bunches)[partial] - 1] = remainder[partial]
    return WireLengthDistribution(
        lengths=np.repeat(wld.lengths, bunches),
        counts=counts,
    )


def max_bunch_count(wld: WireLengthDistribution) -> int:
    """Largest group size — the paper's bound on bunching rank error."""
    if wld.num_groups == 0:
        return 0
    return int(wld.counts.max())


def bin_wld(
    wld: WireLengthDistribution,
    max_groups: int | None = None,
    relative_width: float | None = None,
) -> WireLengthDistribution:
    """Merge nearby lengths into mean-length groups (paper footnote 7).

    Exactly one of the two knobs selects the bin structure:

    ``relative_width``
        Geometric binning: lengths within a multiplicative band of
        ``1 + relative_width`` share a bin.  Mirrors the footnote's
        "replace a group of wires with a single wire whose length is the
        mean of all wire lengths in the group".
    ``max_groups``
        Choose the smallest relative width that yields at most
        ``max_groups`` bins (binary search).

    The mean is count-weighted, so total wirelength is preserved to
    floating-point accuracy and total wire count exactly.
    """
    if (max_groups is None) == (relative_width is None):
        raise WLDError("specify exactly one of max_groups / relative_width")
    if wld.num_groups == 0:
        return wld

    if relative_width is not None:
        if relative_width <= 0:
            raise WLDError(
                f"relative bin width must be positive, got {relative_width!r}"
            )
        return _bin_by_width(wld, relative_width)

    assert max_groups is not None
    if max_groups <= 0:
        raise WLDError(f"max_groups must be positive, got {max_groups!r}")
    if wld.num_groups <= max_groups:
        return wld
    # Binary-search the relative width.  The group count is monotone
    # non-increasing in width; widths are searched on a log scale between
    # "almost exact" and "everything in one bin".
    low, high = 1e-9, wld.max_length / wld.min_length
    for _ in range(64):
        mid = (low * high) ** 0.5
        if _bin_group_count(wld, mid) <= max_groups:
            high = mid
        else:
            low = mid
    return _bin_by_width(wld, high)


def _bin_edges(wld: WireLengthDistribution, relative_width: float) -> np.ndarray:
    """Assign each group a bin id under geometric banding.

    Groups are scanned in rank order; a new bin starts whenever the
    current length falls below ``bin_start_length / (1 + width)``.
    """
    factor = 1.0 + relative_width
    ids = np.empty(wld.num_groups, dtype=np.int64)
    current_id = -1
    bin_start = None
    for index, length in enumerate(wld.lengths):
        if bin_start is None or length < bin_start / factor:
            current_id += 1
            bin_start = float(length)
        ids[index] = current_id
    return ids


def _bin_group_count(wld: WireLengthDistribution, relative_width: float) -> int:
    ids = _bin_edges(wld, relative_width)
    return int(ids[-1]) + 1 if ids.size else 0


def _bin_by_width(
    wld: WireLengthDistribution, relative_width: float
) -> WireLengthDistribution:
    ids = _bin_edges(wld, relative_width)
    num_bins = int(ids[-1]) + 1
    counts = np.zeros(num_bins, dtype=np.int64)
    weighted = np.zeros(num_bins, dtype=float)
    np.add.at(counts, ids, wld.counts)
    np.add.at(weighted, ids, wld.lengths * wld.counts)
    means = weighted / counts
    # Means of consecutive bins are non-increasing because the bins
    # partition a non-increasing sequence.
    return WireLengthDistribution(lengths=means, counts=counts)


def coarsen(
    wld: WireLengthDistribution,
    bunch_size: int | None = None,
    max_groups: int | None = None,
) -> Tuple[WireLengthDistribution, int]:
    """Convenience pipeline: optional binning then optional bunching.

    Returns the coarsened WLD together with the rank error bound (the
    maximum bunch count of the result; 0 for an empty WLD).
    """
    result = wld
    if max_groups is not None:
        result = bin_wld(result, max_groups=max_groups)
    if bunch_size is not None:
        result = bunch_wld(result, bunch_size)
    return result, max_bunch_count(result)
