"""Golden-model validation: numerical simulation of a repeatered line.

A test oracle (``tests/delay/test_simulation.py``, experiment E15).

The rank metric consumes delays exclusively through the Otten--Brayton
closed form (Eqs. (2)-(3)).  This module provides an independent
*numerical* golden model — a discretized distributed-RC ladder driven
through ideal-switch stages, integrated exactly via the linear-system
matrix exponential — so tests can check that the closed forms track
physics, not just each other.

Model per stage: a step source behind the stage resistance ``r_o/s``
drives ``segments`` RC sections (each ``r·dx`` series resistance into a
``c·dx`` shunt capacitor), loaded by the next stage's input capacitance
``s·c_o``; the stage delay is the 50% crossing of the load node, plus
the switching charge time of the stage's own parasitic ``s·c_p``
(approximated as ``ln 2 · r_o/s · s·c_p``).  Total wire delay is the
stage delay times the stage count — matching the Eq. (3) topology.

No solver and no product path uses it: it exists to be slow,
obviously-correct, and independent.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

from repro.errors import DelayModelError
from repro.rc.models import WireRC
from repro.tech.device import DeviceParameters

_LN2 = math.log(2.0)


def _ladder_matrices(
    rc: WireRC,
    drive_resistance: float,
    load_capacitance: float,
    length: float,
    sections: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """State-space matrices of one RC-ladder segment.

    Node voltages v (size ``sections + 1``; the last node carries the
    load capacitance) obey ``C dv/dt = G (u - v_0 direction ...)`` —
    assembled here as ``dv/dt = A v + b`` for a unit step input.
    """
    dx = length / sections
    r_step = rc.resistance * dx
    c_step = rc.capacitance * dx

    n = sections + 1
    # total shunt capacitance = c * length: half-sections at the ends
    caps = np.full(n, c_step)
    caps[0] = c_step / 2.0
    caps[-1] = c_step / 2.0 + load_capacitance
    conductance = np.zeros((n, n))
    # source through drive resistance into node 0
    g_drive = 1.0 / drive_resistance
    conductance[0, 0] += g_drive
    g_wire = 1.0 / r_step
    for i in range(sections):
        conductance[i, i] += g_wire
        conductance[i + 1, i + 1] += g_wire
        conductance[i, i + 1] -= g_wire
        conductance[i + 1, i] -= g_wire

    a_matrix = -conductance / caps[:, None]
    b_vector = np.zeros(n)
    b_vector[0] = g_drive / caps[0]
    return a_matrix, b_vector


def simulate_segment_delay(
    rc: WireRC,
    device: DeviceParameters,
    size: float,
    segment_length: float,
    sections: int = 60,
    time_points: int = 4000,
) -> float:
    """50% step-response delay of one stage segment, numerically.

    Integrates the RC ladder with dense time sampling (via ``expm``-free
    eigendecomposition of the symmetric-similar system) and returns the
    first time the far node crosses half the supply, plus the stage's
    own parasitic charging allowance.
    """
    if size <= 0:
        raise DelayModelError(f"repeater size must be positive, got {size!r}")
    if segment_length <= 0:
        raise DelayModelError(
            f"segment length must be positive, got {segment_length!r}"
        )
    if sections < 2:
        raise DelayModelError(f"need at least 2 ladder sections, got {sections!r}")

    drive_resistance = device.output_resistance / size
    load_capacitance = size * device.input_capacitance

    a_matrix, b_vector = _ladder_matrices(
        rc, drive_resistance, load_capacitance, segment_length, sections
    )

    # steady state: v_inf solves A v + b = 0 (all nodes at the supply)
    v_inf = np.linalg.solve(a_matrix, -b_vector)

    # crude horizon from the Elmore constant of the whole segment
    elmore = (
        drive_resistance
        * (rc.capacitance * segment_length + load_capacitance)
        + rc.resistance * segment_length * (
            rc.capacitance * segment_length / 2.0 + load_capacitance
        )
    )
    horizon = 12.0 * elmore

    eigvals, eigvecs = np.linalg.eig(a_matrix)
    coefficients = np.linalg.solve(eigvecs, -v_inf)  # v(0) = 0

    times = np.linspace(0.0, horizon, time_points)
    modes = np.exp(np.outer(times, eigvals))  # (T, n)
    far_node = (modes * (eigvecs[-1, :] * coefficients)).sum(axis=1).real
    far_node += v_inf[-1].real

    half = 0.5 * v_inf[-1].real
    above = np.nonzero(far_node >= half)[0]
    if above.size == 0:
        raise DelayModelError(
            "simulation horizon too short; increase time_points/sections"
        )
    index = above[0]
    if index == 0:
        crossing = 0.0
    else:
        t0, t1 = times[index - 1], times[index]
        v0, v1 = far_node[index - 1], far_node[index]
        crossing = t0 + (half - v0) / (v1 - v0) * (t1 - t0)

    parasitic = _LN2 * drive_resistance * (size * device.parasitic_capacitance)
    return float(crossing + parasitic)


def simulate_wire_delay(
    rc: WireRC,
    device: DeviceParameters,
    size: float,
    stages: int,
    length: float,
    sections: int = 60,
) -> float:
    """Numerical delay of a wire through ``stages`` identical stages."""
    if stages < 1:
        raise DelayModelError(f"stage count must be at least 1, got {stages!r}")
    if length <= 0:
        raise DelayModelError(f"length must be positive, got {length!r}")
    return stages * simulate_segment_delay(
        rc, device, size, length / stages, sections=sections
    )
