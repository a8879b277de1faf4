"""Repeater sizing and insertion.

The paper's recipe (Section 4.1): repeaters in all wires of a layer-pair
share one size — the delay-optimal ``s_opt,j = sqrt(c_j * r_o / (c_o *
r_j))`` of Eq. (4) — and repeaters are inserted *incrementally* into a
wire until its delay meets the target or the budget runs out.

Incremental insertion of uniform-size repeaters is equivalent to finding
the minimal stage count ``eta`` with ``D(eta) <= d``; because Eq. (3) is
``A*eta + L + Q/eta`` (convex in ``eta``), the feasible stage counts form
a closed interval whose ends solve the quadratic
``A*eta^2 - (d - L)*eta + Q = 0``.  :func:`min_stages_for_target` returns
the smallest integer in that interval, or ``-1`` when the interval is
empty (the wire can never meet the target on this layer-pair — matching
the paper's "repeaters cannot be placed at appropriate intervals" bail
out).
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np
from numpy.typing import ArrayLike

from ..constants import SWITCHING_A, SWITCHING_B
from ..errors import DelayModelError
from ..rc.models import WireRC
from ..tech.device import DeviceParameters
from .ottenbrayton import wire_delay


def optimal_repeater_size(rc: WireRC, device: DeviceParameters) -> float:
    """Delay-optimal repeater size for a layer-pair (paper Eq. (4)).

    ``s_opt = sqrt(c * r_o / (c_o * r))`` in multiples of the minimum
    inverter.  Sizes never go below 1 (a repeater cannot be smaller than
    the minimum inverter).
    """
    size = math.sqrt(
        rc.capacitance
        * device.output_resistance
        / (device.input_capacitance * rc.resistance)
    )
    return max(1.0, size)


def min_stages_for_target(
    rc: WireRC,
    device: DeviceParameters,
    lengths: ArrayLike,
    targets: ArrayLike,
    size: Optional[float] = None,
) -> np.ndarray:
    """Minimal stage counts whose Eq. (3) delays meet their targets.

    Parameters
    ----------
    rc, device:
        Layer-pair electricals and driver/repeater device.
    lengths:
        Wire lengths in metres (scalar or array).
    targets:
        Target delays ``d_i`` in seconds, the shape of ``lengths``.
    size:
        Repeater size; defaults to the layer-pair's Eq. (4) optimum.

    Returns
    -------
    numpy.ndarray
        int64 minimal feasible stage counts (>= 1) of the inputs' shape,
        with ``-1`` marking wires that no stage count gets to their
        targets on this layer-pair.
    """
    length = np.asarray(lengths, dtype=float)
    target = np.asarray(targets, dtype=float)
    if length.shape != target.shape:
        raise DelayModelError(
            f"lengths and targets must have equal shape, got "
            f"{length.shape} vs {target.shape}"
        )
    if (length < 0).any():
        raise DelayModelError("lengths must be non-negative")
    if size is None:
        size = optimal_repeater_size(rc, device)
    shape = length.shape
    length, target = length.ravel(), target.ravel()

    coeff_a = SWITCHING_B * device.intrinsic_delay
    linear = (
        SWITCHING_B
        * (
            rc.capacitance * device.output_resistance / size
            + rc.resistance * device.input_capacitance * size
        )
        * length
    )
    quad = SWITCHING_A * rc.rc_product * (length * length)
    # Feasible eta satisfy coeff_a*eta^2 - budget*eta + quad <= 0: none
    # when the eta-independent linear term alone exceeds the target, or
    # when even the convex minimum does.
    budget = target - linear
    with np.errstate(invalid="ignore"):
        disc = budget * budget - 4.0 * coeff_a * quad
        feasible = (budget > 0) & (disc >= 0) & (target > 0)
        sqrt_disc = np.sqrt(np.where(feasible, disc, 0.0))
        low = (budget - sqrt_disc) / (2.0 * coeff_a)
        high = (budget + sqrt_disc) / (2.0 * coeff_a)
    eta = np.maximum(1, np.ceil(low - 1e-12)).astype(np.int64)
    # No integer in the feasible interval at/above 1.
    feasible &= eta <= high + 1e-12
    result = np.where(feasible, eta, -1)

    # Guard against floating-point edge cases: verify the closed form's
    # count, nudge the misses up once, and keep the nudge only where it
    # stays inside the interval and meets the target.
    short = feasible & (wire_delay(rc, device, size, eta, length) > target)
    if short.any():
        nudged = eta[short] + 1
        ok = nudged <= high[short] + 1e-9
        ok[ok] = (
            wire_delay(rc, device, size, nudged[ok], length[short][ok])
            <= target[short][ok]
        )
        result[short] = np.where(ok, nudged, -1)
    return result.reshape(shape)
