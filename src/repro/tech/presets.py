"""Process-node presets: the paper's Table 3, plus device parameters.

The geometric numbers below are copied verbatim from Table 3 of the paper
("Technology parameters used for study of variation of rank"), which the
paper sources from TSMC for the 180 nm, 130 nm and 90 nm nodes:

========================  =========  =========  =========
Parameter                 180 nm     130 nm     90 nm
========================  =========  =========  =========
M1 minimum width          0.230 um   0.160 um   0.120 um
M1 minimum spacing        0.230 um   0.180 um   0.120 um
M1 thickness              0.483 um   0.336 um   0.260 um
Mx minimum width          0.280 um   0.200 um   0.140 um
Mx minimum spacing        0.280 um   0.210 um   0.140 um
Mx thickness              0.588 um   0.340 um   0.300 um
Mt minimum width          0.440 um   0.440 um   0.420 um
Mt minimum spacing        0.460 um   0.460 um   0.420 um
Mt thickness              0.960 um   1.020 um   0.880 um
V1 minimum width          0.260 um   0.190 um   0.130 um
Vx-1 minimum width        0.260 um   0.260 um   0.130 um
Vt-1 minimum width        0.360 um   0.360 um   0.360 um
========================  =========  =========  =========

For 180 nm, x = 2..5 and t = 6 (six metal layers); for 130 nm, x = 2..6
and t = 7; for 90 nm, x = 2..7 and t = 8.

Device parameters (minimum-inverter r_o, c_o, c_p, area) are *not* printed
in the paper; the values here are ITRS-2001-era textbook reconstructions
calibrated so that the baseline design reproduces the paper's Table 4
regime: the repeater budget binds at mid-WLD ranks (its ``R`` column is
linear in budget) and the driver-intrinsic delay wall sits below the
shortest-passing-wire lengths implied by its sweep maxima.
DESIGN.md records this substitution; rank shapes are insensitive to the
exact values (see ``tests/analysis/test_sensitivity.py``).
"""

from __future__ import annotations

from typing import Dict, Tuple

from .. import units
from ..errors import ConfigurationError
from .device import DeviceParameters
from .materials import ALUMINIUM, COPPER, SIO2
from .node import MetalRule, TechnologyNode, ViaRule


def _device(feature_size: float, r_o: float, c_o: float, c_p: float, vdd: float) -> DeviceParameters:
    """Build device parameters with a minimum-inverter area of 1.5 F^2.

    The repeater budget of the paper is *device* (gate) area, not placed
    standard-cell footprint: its footnote 3 leaves driver/receiver sizing
    outside the gate-area budget, and its Table 4 ``R`` column — rank
    growing linearly through ~0.5 of a multi-million-wire WLD within a
    0.1..0.5 die-area budget — is only arithmetically possible if one
    unit of repeater size costs on the order of the two minimum
    transistors' channel area (~1.5 F^2), three orders below a placed
    cell.  DESIGN.md records this calibration.
    """
    return DeviceParameters(
        output_resistance=r_o,
        input_capacitance=c_o,
        parasitic_capacitance=c_p,
        min_inverter_area=1.5 * feature_size * feature_size,
        supply_voltage=vdd,
    )


#: The paper's Table 3, 180 nm column.  Aluminium-era back end, six metals.
NODE_180NM = TechnologyNode(
    name="180nm",
    feature_size=units.nm(180),
    metal_rules={
        "local": MetalRule(
            min_width=units.um(0.230),
            min_spacing=units.um(0.230),
            thickness=units.um(0.483),
        ),
        "semi_global": MetalRule(
            min_width=units.um(0.280),
            min_spacing=units.um(0.280),
            thickness=units.um(0.588),
        ),
        "global": MetalRule(
            min_width=units.um(0.440),
            min_spacing=units.um(0.460),
            thickness=units.um(0.960),
        ),
    },
    via_rules={
        "local": ViaRule(min_width=units.um(0.260), enclosure=units.um(0.05)),
        "semi_global": ViaRule(min_width=units.um(0.260), enclosure=units.um(0.05)),
        "global": ViaRule(min_width=units.um(0.360), enclosure=units.um(0.05)),
    },
    device=_device(units.nm(180), r_o=3.2e3, c_o=units.ff(0.80), c_p=units.ff(0.55), vdd=1.8),
    conductor=ALUMINIUM,
    dielectric=SIO2,
)

#: The paper's Table 3, 130 nm column — the baseline node of Table 4.
NODE_130NM = TechnologyNode(
    name="130nm",
    feature_size=units.nm(130),
    metal_rules={
        "local": MetalRule(
            min_width=units.um(0.160),
            min_spacing=units.um(0.180),
            thickness=units.um(0.336),
        ),
        "semi_global": MetalRule(
            min_width=units.um(0.200),
            min_spacing=units.um(0.210),
            thickness=units.um(0.340),
        ),
        "global": MetalRule(
            min_width=units.um(0.440),
            min_spacing=units.um(0.460),
            thickness=units.um(1.020),
        ),
    },
    via_rules={
        "local": ViaRule(min_width=units.um(0.190), enclosure=units.um(0.04)),
        "semi_global": ViaRule(min_width=units.um(0.260), enclosure=units.um(0.04)),
        "global": ViaRule(min_width=units.um(0.360), enclosure=units.um(0.04)),
    },
    device=_device(units.nm(130), r_o=2.29e3, c_o=units.ff(0.60), c_p=units.ff(0.40), vdd=1.2),
    conductor=COPPER,
    dielectric=SIO2,
)

#: The paper's Table 3, 90 nm column.
NODE_90NM = TechnologyNode(
    name="90nm",
    feature_size=units.nm(90),
    metal_rules={
        "local": MetalRule(
            min_width=units.um(0.120),
            min_spacing=units.um(0.120),
            thickness=units.um(0.260),
        ),
        "semi_global": MetalRule(
            min_width=units.um(0.140),
            min_spacing=units.um(0.140),
            thickness=units.um(0.300),
        ),
        "global": MetalRule(
            min_width=units.um(0.420),
            min_spacing=units.um(0.420),
            thickness=units.um(0.880),
        ),
    },
    via_rules={
        "local": ViaRule(min_width=units.um(0.130), enclosure=units.um(0.03)),
        "semi_global": ViaRule(min_width=units.um(0.130), enclosure=units.um(0.03)),
        "global": ViaRule(min_width=units.um(0.360), enclosure=units.um(0.03)),
    },
    device=_device(units.nm(90), r_o=2.0e3, c_o=units.ff(0.45), c_p=units.ff(0.30), vdd=1.0),
    conductor=COPPER,
    dielectric=SIO2,
)


_NODES: Dict[str, TechnologyNode] = {
    "180nm": NODE_180NM,
    "130nm": NODE_130NM,
    "90nm": NODE_90NM,
}

#: Names :func:`get_node` accepts, in Table 3 order.
NODE_NAMES: Tuple[str, ...] = tuple(_NODES)

#: Total metal-layer counts implied by Table 3's x/t index ranges.
METAL_LAYER_COUNTS: Dict[str, int] = {"180nm": 6, "130nm": 7, "90nm": 8}


def get_node(name: str) -> TechnologyNode:
    """Look up a built-in node by name (e.g. ``"130nm"``).

    Raises
    ------
    ConfigurationError
        If the name is not one of the built-in nodes.
    """
    try:
        return _NODES[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown technology node {name!r}; available: {sorted(_NODES)}"
        ) from None
