"""The Otten--Brayton wire delay model (paper Eqs. (2) and (3)).

A wire of length ``l`` on layer-pair ``j`` is driven through ``eta``
identical stages (the original driver plus ``eta - 1`` inserted
repeaters), each a size-``s`` inverter.  The delay of one segment of
length ``l/eta`` is (Eq. (2))

    tau = b * R_tr * (C_L + c_p') + b * (c * R_tr + r * C_L) * (l/eta)
          + a * r * c * (l/eta)^2

with ``R_tr = r_o / s``, ``C_L = s * c_o`` and ``c_p' = s * c_p``; the
total delay is ``eta`` segments (Eq. (3)):

    D = b * r_o * (c_o + c_p) * eta
        + b * (c * r_o / s + r * c_o * s) * l
        + a * r * c * l^2 / eta

with the switching constants ``a = 0.4`` and ``b = 0.7``.  Note how the
intrinsic term grows with ``eta`` while the distributed-RC term shrinks:
repeaters trade driver self-delay against quadratic wire delay.
"""

from __future__ import annotations

import numpy as np
from numpy.typing import ArrayLike

from ..constants import SWITCHING_A, SWITCHING_B
from ..errors import DelayModelError
from ..rc.models import WireRC
from ..tech.device import DeviceParameters


def wire_delay(
    rc: WireRC,
    device: DeviceParameters,
    size: ArrayLike,
    stages: ArrayLike,
    lengths: ArrayLike,
) -> np.ndarray:
    """Total delay of wires driven through ``stages`` stages (Eq. (3)).

    ``stages`` counts the driver itself; ``stages - 1`` repeaters are
    physically inserted along the wire.  ``size``, ``stages`` and
    ``lengths`` are scalars or arrays that broadcast together, so one call
    evaluates a whole layer-pair worth of wire groups; the result has
    the broadcast shape (a NumPy scalar for scalar inputs).
    """
    s = np.asarray(size, dtype=float)
    eta = np.asarray(stages, dtype=float)
    length = np.asarray(lengths, dtype=float)
    if (s <= 0).any():
        raise DelayModelError("repeater sizes must be positive")
    if (length < 0).any():
        raise DelayModelError("wire lengths must be non-negative")
    if (eta < 1).any():
        raise DelayModelError("stage counts must be at least 1")
    intrinsic = SWITCHING_B * device.intrinsic_delay * eta
    linear = (
        SWITCHING_B
        * (
            rc.capacitance * device.output_resistance / s
            + rc.resistance * device.input_capacitance * s
        )
        * length
    )
    quadratic = SWITCHING_A * rc.rc_product * (length * length) / eta
    return intrinsic + linear + quadratic
