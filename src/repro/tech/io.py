"""Technology node serialization.

Lets users define their own process nodes in JSON instead of Python —
the adoption surface for evaluating a foundry stack the presets do not
cover.  The schema mirrors the dataclasses one-to-one; all geometry is
in metres and capacitances in farads (use explicit exponents in the
file: ``160e-9``).

Example (abridged)::

    {
      "name": "65nm-custom",
      "feature_size": 65e-9,
      "conductor": {"name": "copper", "resistivity": 2.2e-8},
      "dielectric": {"name": "OSG", "relative_permittivity": 2.8},
      "device": {"output_resistance": 2000.0, "input_capacitance": 4e-16,
                 "parasitic_capacitance": 3e-16,
                 "min_inverter_area": 6.3e-15, "supply_voltage": 1.0},
      "metal_rules": {"local": {"min_width": 9e-8, ...}, ...},
      "via_rules": {"local": {"min_width": 9e-8, "enclosure": 2e-8}, ...}
    }
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Union

from ..errors import ConfigurationError
from .device import DeviceParameters
from .materials import Conductor, Dielectric
from .node import MetalRule, TechnologyNode, ViaRule

PathLike = Union[str, Path]


def node_to_dict(node: TechnologyNode) -> dict:
    """Serialize a node to a plain JSON-ready dictionary."""
    return {
        "name": node.name,
        "feature_size": node.feature_size,
        "gate_pitch_factor": node.gate_pitch_factor,
        "conductor": {
            "name": node.conductor.name,
            "resistivity": node.conductor.resistivity,
        },
        "dielectric": {
            "name": node.dielectric.name,
            "relative_permittivity": node.dielectric.relative_permittivity,
        },
        "device": {
            "output_resistance": node.device.output_resistance,
            "input_capacitance": node.device.input_capacitance,
            "parasitic_capacitance": node.device.parasitic_capacitance,
            "min_inverter_area": node.device.min_inverter_area,
            "supply_voltage": node.device.supply_voltage,
        },
        "metal_rules": {
            tier: {
                "min_width": rule.min_width,
                "min_spacing": rule.min_spacing,
                "thickness": rule.thickness,
                "ild_height": rule.ild_height,
            }
            for tier, rule in node.metal_rules.items()
        },
        "via_rules": {
            tier: {"min_width": rule.min_width, "enclosure": rule.enclosure}
            for tier, rule in node.via_rules.items()
        },
    }


_MISSING = object()


def _section(payload: dict, path: str) -> dict:
    """Fetch a required sub-object, diagnosing by field path."""
    if path not in payload:
        raise ConfigurationError(
            f"technology node: missing required section {path!r}"
        )
    section = payload[path]
    if not isinstance(section, dict):
        raise ConfigurationError(
            f"technology node field {path!r}: expected a JSON object, "
            f"got {type(section).__name__}"
        )
    return section


def _number(
    mapping: dict,
    path: str,
    minimum: float = 0.0,
    exclusive: bool = True,
    default: object = _MISSING,
) -> float:
    """Fetch and range-check one numeric field.

    Diagnostics always name the full field path and the expected range
    (e.g. ``metal_rules.global.min_width: expected a number > 0``), so
    a malformed ``--node-file`` fails with one actionable line instead
    of a traceback.
    """
    key = path.rsplit(".", 1)[-1]
    if key not in mapping:
        if default is not _MISSING:
            return float(default)  # optional field
        raise ConfigurationError(
            f"technology node: missing required field {path!r}"
        )
    value = mapping[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigurationError(
            f"technology node field {path!r}: expected a number, got {value!r}"
        )
    try:
        number = float(value)
    except OverflowError:  # a JSON integer beyond float range
        number = math.inf if value > 0 else -math.inf
    if not math.isfinite(number):
        raise ConfigurationError(
            f"technology node field {path!r}: expected a finite number, "
            f"got {number!r}"
        )
    bound = f"> {minimum:g}" if exclusive else f">= {minimum:g}"
    if (value <= minimum) if exclusive else (value < minimum):
        raise ConfigurationError(
            f"technology node field {path!r}: expected a number {bound}, "
            f"got {value!r}"
        )
    return number


def _name(mapping: dict, path: str) -> str:
    key = path.rsplit(".", 1)[-1]
    value = mapping.get(key)
    if not isinstance(value, str) or not value:
        raise ConfigurationError(
            f"technology node field {path!r}: expected a non-empty string, "
            f"got {value!r}"
        )
    return value


def node_from_dict(payload: dict) -> TechnologyNode:
    """Deserialize a node; raises ConfigurationError on malformed input.

    Every missing, non-numeric, or out-of-range field is reported with
    its full path and the expected range.
    """
    metal_rules = {}
    for tier, rule in _section(payload, "metal_rules").items():
        if not isinstance(rule, dict):
            raise ConfigurationError(
                f"technology node field 'metal_rules.{tier}': "
                f"expected a JSON object, got {type(rule).__name__}"
            )
        prefix = f"metal_rules.{tier}"
        metal_rules[tier] = MetalRule(
            min_width=_number(rule, f"{prefix}.min_width"),
            min_spacing=_number(rule, f"{prefix}.min_spacing"),
            thickness=_number(rule, f"{prefix}.thickness"),
            ild_height=_number(
                rule, f"{prefix}.ild_height", exclusive=False, default=0.0
            ),
        )
    via_rules = {}
    for tier, rule in _section(payload, "via_rules").items():
        if not isinstance(rule, dict):
            raise ConfigurationError(
                f"technology node field 'via_rules.{tier}': "
                f"expected a JSON object, got {type(rule).__name__}"
            )
        prefix = f"via_rules.{tier}"
        via_rules[tier] = ViaRule(
            min_width=_number(rule, f"{prefix}.min_width"),
            enclosure=_number(
                rule, f"{prefix}.enclosure", exclusive=False, default=0.0
            ),
        )
    device_data = _section(payload, "device")
    device = DeviceParameters(
        output_resistance=_number(device_data, "device.output_resistance"),
        input_capacitance=_number(device_data, "device.input_capacitance"),
        parasitic_capacitance=_number(
            device_data, "device.parasitic_capacitance", exclusive=False
        ),
        min_inverter_area=_number(device_data, "device.min_inverter_area"),
        supply_voltage=_number(device_data, "device.supply_voltage", default=1.2),
    )
    conductor_data = _section(payload, "conductor")
    dielectric_data = _section(payload, "dielectric")
    return TechnologyNode(
        name=_name(payload, "name"),
        feature_size=_number(payload, "feature_size"),
        metal_rules=metal_rules,
        via_rules=via_rules,
        device=device,
        conductor=Conductor(
            name=_name(conductor_data, "conductor.name"),
            resistivity=_number(conductor_data, "conductor.resistivity"),
        ),
        dielectric=Dielectric(
            name=_name(dielectric_data, "dielectric.name"),
            relative_permittivity=_number(
                dielectric_data,
                "dielectric.relative_permittivity",
                minimum=1.0,
                exclusive=False,
            ),
        ),
        gate_pitch_factor=_number(payload, "gate_pitch_factor", default=12.6),
    )


def save_node(node: TechnologyNode, path: PathLike) -> None:
    """Write a node description to a JSON file."""
    with open(path, "w") as handle:
        json.dump(node_to_dict(node), handle, indent=2)


def load_node(path: PathLike) -> TechnologyNode:
    """Read a node description from a JSON file.

    Every failure mode — unreadable file, invalid JSON, missing or
    out-of-range fields — raises :class:`ConfigurationError` with a
    one-line actionable message, never an uncaught traceback.
    """
    try:
        with open(path) as handle:
            payload = json.load(handle)
    except OSError as exc:
        raise ConfigurationError(f"{path}: cannot read node file: {exc}") from exc
    except ValueError as exc:  # malformed JSON, bad UTF-8, oversized integer
        raise ConfigurationError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ConfigurationError(f"{path}: expected a JSON object")
    try:
        return node_from_dict(payload)
    except ConfigurationError as exc:
        raise ConfigurationError(f"{path}: {exc}") from exc
