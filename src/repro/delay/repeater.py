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
the smallest integer in that interval, or ``None`` when the interval is
empty (the wire can never meet the target on this layer-pair — matching
the paper's "repeaters cannot be placed at appropriate intervals" bail
out).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Optional

from ..constants import SWITCHING_A, SWITCHING_B
from ..errors import DelayModelError
from ..rc.models import WireRC
from ..tech.device import DeviceParameters
from .ottenbrayton import wire_delay

if TYPE_CHECKING:  # numpy loads lazily in the batch kernels below
    import numpy as np

    from ..rc.models import RCArrays


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


def optimal_repeater_size_batch(
    rc_arrays: "RCArrays", device: DeviceParameters
) -> "np.ndarray":
    """Vectorized :func:`optimal_repeater_size` over a whole architecture.

    ``rc_arrays`` is an :class:`~repro.rc.models.RCArrays` (or anything
    with ``resistance`` / ``capacitance`` arrays); one call sizes every
    layer-pair's repeater.  Element arithmetic matches the scalar
    function exactly.
    """
    import numpy as np

    size = np.sqrt(
        rc_arrays.capacitance
        * device.output_resistance
        / (device.input_capacitance * rc_arrays.resistance)
    )
    return np.maximum(1.0, size)


def min_stages_for_target(
    rc: WireRC,
    device: DeviceParameters,
    length: float,
    target: float,
    size: Optional[float] = None,
    a: float = SWITCHING_A,
    b: float = SWITCHING_B,
) -> Optional[int]:
    """Minimal stage count whose Eq. (3) delay meets ``target``.

    Parameters
    ----------
    rc, device:
        Layer-pair electricals and driver/repeater device.
    length:
        Wire length in metres.
    target:
        Target delay ``d_i`` in seconds.
    size:
        Repeater size; defaults to the layer-pair's Eq. (4) optimum.

    Returns
    -------
    int or None
        The minimal feasible stage count (>= 1), or ``None`` if no stage
        count meets the target.
    """
    if length < 0:
        raise DelayModelError(f"wire length must be non-negative, got {length!r}")
    if target <= 0:
        return None
    if size is None:
        size = optimal_repeater_size(rc, device)

    coeff_a = b * device.intrinsic_delay
    linear = (
        b
        * (
            rc.capacitance * device.output_resistance / size
            + rc.resistance * device.input_capacitance * size
        )
        * length
    )
    quad = a * rc.rc_product * (length * length)

    budget = target - linear
    if budget <= 0:
        return None  # the eta-independent linear term alone exceeds the target

    # Feasible eta satisfy coeff_a*eta^2 - budget*eta + quad <= 0.
    disc = budget * budget - 4.0 * coeff_a * quad
    if disc < 0:
        return None  # even the convex minimum exceeds the target
    sqrt_disc = math.sqrt(disc)
    low = (budget - sqrt_disc) / (2.0 * coeff_a)
    high = (budget + sqrt_disc) / (2.0 * coeff_a)

    eta = max(1, math.ceil(low - 1e-12))
    if eta > high + 1e-12:
        return None  # no integer in the feasible interval at/above 1
    # Guard against floating-point edge cases: verify, and nudge once.
    if wire_delay(rc, device, size, eta, length, a, b) > target:
        eta += 1
        if eta > high + 1e-9:
            return None
        if wire_delay(rc, device, size, eta, length, a, b) > target:
            return None
    return eta


def min_stages_for_target_batch(
    rc: WireRC,
    device: DeviceParameters,
    lengths: "np.ndarray",
    targets: "np.ndarray",
    size: Optional[float] = None,
    a: float = SWITCHING_A,
    b: float = SWITCHING_B,
) -> "np.ndarray":
    """Vectorized :func:`min_stages_for_target` over length/target arrays.

    Returns an int64 array of minimal stage counts with ``-1`` marking
    wires that cannot meet their targets on this layer-pair.  Used by the
    rank solvers to precompute per-(layer-pair, wire-group) repeater
    demand in one shot.
    """
    import numpy as np

    lengths = np.asarray(lengths, dtype=float)
    targets = np.asarray(targets, dtype=float)
    if lengths.shape != targets.shape:
        raise DelayModelError(
            f"lengths and targets must have equal shape, got "
            f"{lengths.shape} vs {targets.shape}"
        )
    if lengths.size and np.any(lengths < 0):
        raise DelayModelError("lengths must be non-negative")
    if size is None:
        size = optimal_repeater_size(rc, device)

    coeff_a = b * device.intrinsic_delay
    linear = (
        b
        * (
            rc.capacitance * device.output_resistance / size
            + rc.resistance * device.input_capacitance * size
        )
        * lengths
    )
    quad = a * rc.rc_product * lengths ** 2
    budget = targets - linear

    result = np.full(lengths.shape, -1, dtype=np.int64)
    with np.errstate(invalid="ignore"):
        disc = budget * budget - 4.0 * coeff_a * quad
        feasible = (budget > 0) & (disc >= 0) & (targets > 0)
        sqrt_disc = np.sqrt(np.where(feasible, disc, 0.0))
        low = (budget - sqrt_disc) / (2.0 * coeff_a)
        high = (budget + sqrt_disc) / (2.0 * coeff_a)
    eta = np.maximum(1, np.ceil(low - 1e-12)).astype(np.int64)
    feasible &= eta <= high + 1e-12
    result[feasible] = eta[feasible]

    # Floating-point verification pass on the (rare) boundary cases.
    check = result > 0
    if np.any(check):
        stages = result[check].astype(float)
        delays = (
            coeff_a * stages + linear[check] + quad[check] / stages
        )
        bad = delays > targets[check]
        if np.any(bad):
            indices = np.flatnonzero(check)[bad]
            for index in indices:
                fixed = min_stages_for_target(
                    rc,
                    device,
                    float(lengths[index]),
                    float(targets[index]),
                    size=size,
                    a=a,
                    b=b,
                )
                result[index] = -1 if fixed is None else fixed
    return result
