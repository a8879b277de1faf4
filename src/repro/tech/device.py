"""Minimum-inverter (driver / repeater) device parameters.

The paper's delay model (its Eqs. (2)-(4)) is parameterized by three
device constants of the minimum-sized inverter:

* ``r_o`` — output resistance,
* ``c_o`` — input capacitance,
* ``c_p`` — parasitic (drain junction) capacitance,

plus, for repeater-area accounting, the silicon area of a minimum
inverter (a repeater of size ``s`` occupies ``s`` minimum-inverter areas;
the paper's Eq. (5) counts repeaters as ``z_r = r / s_j``).

The paper does not print its device constants; per the substitution rule
they are reconstructed from ITRS-2001-era textbook values and recorded in
:mod:`repro.tech.presets`.  Rank depends on them smoothly, so the shapes
of the Table 4 sweeps are insensitive to the exact choices (verified by
``tests/analysis/test_sensitivity.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigurationError


@dataclass(frozen=True)
class DeviceParameters:
    """Electrical and area parameters of the minimum-sized inverter.

    Attributes
    ----------
    output_resistance:
        ``r_o`` in ohms: equivalent switching resistance of the minimum
        inverter's pull network.
    input_capacitance:
        ``c_o`` in farads: gate capacitance presented by the minimum
        inverter's input.
    parasitic_capacitance:
        ``c_p`` in farads: drain parasitic capacitance of the minimum
        inverter's output.
    min_inverter_area:
        Silicon area of a minimum inverter in square metres.  A repeater
        of size ``s`` (a multiple of minimum size) consumes
        ``s * min_inverter_area`` of the repeater budget.
    supply_voltage:
        Nominal supply in volts.  Node files carry it and it is
        validated, but rank computation never uses it.
    """

    output_resistance: float
    input_capacitance: float
    parasitic_capacitance: float
    min_inverter_area: float
    supply_voltage: float = 1.2

    def __post_init__(self) -> None:
        for attr in (
            "output_resistance",
            "input_capacitance",
            "parasitic_capacitance",
            "min_inverter_area",
            "supply_voltage",
        ):
            value = getattr(self, attr)
            if value <= 0:
                raise ConfigurationError(
                    f"DeviceParameters.{attr} must be positive, got {value!r}"
                )

    @property
    def intrinsic_delay(self) -> float:
        """``r_o * (c_o + c_p)``: the size-invariant self-delay of one stage.

        A repeater of size ``s`` has resistance ``r_o / s`` and
        capacitances ``s * c_o`` and ``s * c_p``, so this product — and
        therefore the per-stage intrinsic delay term of the paper's
        Eq. (3) — does not change with sizing.  It is what makes very
        short wires unable to meet a target delay proportional to length.
        """
        return self.output_resistance * (
            self.input_capacitance + self.parasitic_capacitance
        )

    def repeater_area(self, size: float) -> float:
        """Silicon area consumed by one repeater of the given size multiple."""
        if size <= 0:
            raise ConfigurationError(f"repeater size must be positive, got {size!r}")
        return self.min_inverter_area * size
