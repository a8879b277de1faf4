"""Technology models: materials, devices, and process-node presets.

This package supplies the process-side inputs of the rank metric:

* :mod:`repro.tech.materials` — conductor and dielectric materials,
* :mod:`repro.tech.device` — minimum-inverter (driver/repeater) parameters,
* :mod:`repro.tech.node` — a :class:`~repro.tech.node.TechnologyNode`
  bundling metal geometry rules, via rules, device parameters and the
  ITRS gate-pitch rule,
* :mod:`repro.tech.presets` — the TSMC-style 180/130/90 nm parameter sets
  of the paper's Table 3.
"""

from .materials import Conductor, Dielectric, COPPER, ALUMINIUM, SIO2, LOW_K_36, LOW_K_28
from .device import DeviceParameters
from .node import MetalRule, ViaRule, TechnologyNode
from .io import load_node, node_from_dict, node_to_dict, save_node
from .presets import (
    NODE_180NM,
    NODE_130NM,
    NODE_90NM,
    get_node,
)

__all__ = [
    "Conductor",
    "Dielectric",
    "COPPER",
    "ALUMINIUM",
    "SIO2",
    "LOW_K_36",
    "LOW_K_28",
    "DeviceParameters",
    "MetalRule",
    "ViaRule",
    "TechnologyNode",
    "NODE_180NM",
    "NODE_130NM",
    "NODE_90NM",
    "get_node",
    "load_node",
    "save_node",
    "node_to_dict",
    "node_from_dict",
]
