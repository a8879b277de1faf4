"""WLD persistence: the CSV that ``ia-rank wld --out`` writes.

Header ``length,count`` followed by one row per group: gate-pitch lengths
and integer counts in rank order.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Union

from ..errors import WLDError
from .distribution import WireLengthDistribution

PathLike = Union[str, Path]


def save_wld_csv(wld: WireLengthDistribution, path: PathLike) -> None:
    """Write a WLD to CSV (``length,count`` header, rank order)."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["length", "count"])
        for length, count in wld:
            writer.writerow([repr(length), count])


def load_wld_csv(path: PathLike) -> WireLengthDistribution:
    """Read a WLD from CSV written by :func:`save_wld_csv`."""
    groups = []
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None or [h.strip().lower() for h in header] != ["length", "count"]:
            raise WLDError(
                f"{path}: expected CSV header 'length,count', got {header!r}"
            )
        for row_number, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 2:
                raise WLDError(f"{path}:{row_number}: expected two columns, got {row!r}")
            try:
                groups.append((float(row[0]), int(row[1])))
            except ValueError as exc:
                raise WLDError(f"{path}:{row_number}: {exc}") from exc
    if not groups:
        raise WLDError(f"{path}: no WLD rows found")
    return WireLengthDistribution.from_groups(groups)
