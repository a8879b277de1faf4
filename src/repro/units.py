"""Unit helpers.

The library computes internally in SI units: lengths in metres, areas in
square metres, resistance in ohms, capacitance in farads, time in seconds,
frequency in hertz.  Process geometry, however, is naturally quoted in
micrometres and nanometres (as in the paper's Table 3), so this module
provides explicit, grep-able conversion helpers instead of scattering
``1e-6`` literals around the code base.

All helpers validate sign where a negative value would be physically
meaningless and raise :class:`repro.errors.UnitsError`.
"""

from __future__ import annotations

from .errors import UnitsError

#: metres per micrometre
UM = 1.0e-6
#: metres per nanometre
NM = 1.0e-9
#: metres per millimetre
MM = 1.0e-3

#: seconds per picosecond
PS = 1.0e-12
#: seconds per nanosecond
NS = 1.0e-9
#: seconds per microsecond
US = 1.0e-6

#: hertz per megahertz
MHZ = 1.0e6
#: hertz per gigahertz
GHZ = 1.0e9

#: farads per femtofarad
FF = 1.0e-15

# Plain SI scale prefixes, for report formatting of quantities the
# library does not model as first-class dimensions (gate counts in
# millions, ...).  Using these instead of bare
# ``1e6`` literals keeps every power-of-ten scaling grep-able, which is
# what the RPL001 lint rule (repro.lintkit) enforces.
KILO = 1.0e3
MEGA = 1.0e6
TERA = 1.0e12


def _require_non_negative(value: float, what: str) -> float:
    if value < 0:
        raise UnitsError(f"{what} must be non-negative, got {value!r}")
    return float(value)


def um(value: float) -> float:
    """Convert micrometres to metres (non-negative)."""
    return _require_non_negative(value, "length in um") * UM


def nm(value: float) -> float:
    """Convert nanometres to metres (non-negative)."""
    return _require_non_negative(value, "length in nm") * NM


def mm(value: float) -> float:
    """Convert millimetres to metres (non-negative)."""
    return _require_non_negative(value, "length in mm") * MM


def to_um(metres: float) -> float:
    """Convert metres to micrometres."""
    return metres / UM


def mm2(value: float) -> float:
    """Convert square millimetres to square metres (non-negative)."""
    return _require_non_negative(value, "area in mm^2") * MM * MM


def to_mm2(square_metres: float) -> float:
    """Convert square metres to square millimetres."""
    return square_metres / (MM * MM)


def um2(value: float) -> float:
    """Convert square micrometres to square metres (non-negative)."""
    return _require_non_negative(value, "area in um^2") * UM * UM


def to_um2(square_metres: float) -> float:
    """Convert square metres to square micrometres."""
    return square_metres / (UM * UM)


def ps(value: float) -> float:
    """Convert picoseconds to seconds (non-negative)."""
    return _require_non_negative(value, "time in ps") * PS


def ns(value: float) -> float:
    """Convert nanoseconds to seconds (non-negative)."""
    return _require_non_negative(value, "time in ns") * NS


def to_ps(seconds: float) -> float:
    """Convert seconds to picoseconds."""
    return seconds / PS


def to_us(seconds: float) -> float:
    """Convert seconds to microseconds."""
    return seconds / US


def mhz(value: float) -> float:
    """Convert megahertz to hertz (non-negative)."""
    return _require_non_negative(value, "frequency in MHz") * MHZ


def ghz(value: float) -> float:
    """Convert gigahertz to hertz (non-negative)."""
    return _require_non_negative(value, "frequency in GHz") * GHZ


def ff(value: float) -> float:
    """Convert femtofarads to farads (non-negative)."""
    return _require_non_negative(value, "capacitance in fF") * FF
