"""Per-unit-length RC extraction and via area models.

The rank metric consumes interconnect electricals through exactly two
numbers per layer-pair — resistance per unit length ``r_j`` and effective
capacitance per unit length ``c_j`` (the paper's r-bar and c-bar) — plus
the blocked area of a via (the paper's ``v_a``).  This package computes
them from geometry and materials:

* :mod:`repro.rc.resistance` — ``rho / (W * T)``,
* :mod:`repro.rc.capacitance` — ground + Miller-scaled coupling
  capacitance (parallel plates plus a constant fringe allowance),
* :mod:`repro.rc.via` — the paper's via count per wire (a repeater
  blocks one via footprint per pair below it),
* :mod:`repro.rc.models` — the :class:`~repro.rc.models.WireRC` bundle
  and extraction entry point.

A :class:`~repro.rc.models.WireRC` holds one pair's two scalars; the
delay formulas of :mod:`repro.delay` broadcast over arrays of lengths,
stages and sizes, so there is no array mirror of it.
"""

from .capacitance import total_capacitance_per_length
from .models import WireRC, extract_wire_rc
from .resistance import resistance_per_length

__all__ = [
    "total_capacitance_per_length",
    "WireRC",
    "extract_wire_rc",
    "resistance_per_length",
]
