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

from typing import TYPE_CHECKING

from ..constants import SWITCHING_A, SWITCHING_B
from ..errors import DelayModelError
from ..rc.models import WireRC
from ..tech.device import DeviceParameters

if TYPE_CHECKING:  # numpy loads lazily in the batch kernel below
    import numpy as np


def _validate(length: float, size: float, stages: int) -> None:
    if length < 0:
        raise DelayModelError(f"wire length must be non-negative, got {length!r}")
    if size <= 0:
        raise DelayModelError(f"repeater size must be positive, got {size!r}")
    if stages < 1:
        raise DelayModelError(f"stage count must be at least 1, got {stages!r}")


def wire_delay(
    rc: WireRC,
    device: DeviceParameters,
    size: float,
    stages: int,
    length: float,
    a: float = SWITCHING_A,
    b: float = SWITCHING_B,
) -> float:
    """Total delay of a wire driven through ``stages`` stages (Eq. (3)).

    ``stages`` counts the driver itself; ``stages - 1`` repeaters are
    physically inserted along the wire.
    """
    _validate(length, size, stages)
    intrinsic = b * device.intrinsic_delay * stages
    linear = (
        b
        * (
            rc.capacitance * device.output_resistance / size
            + rc.resistance * device.input_capacitance * size
        )
        * length
    )
    quadratic = a * rc.rc_product * (length * length) / stages
    return intrinsic + linear + quadratic


def wire_delay_batch(
    rc: WireRC,
    device: DeviceParameters,
    size: float,
    stages: "np.ndarray",
    lengths: "np.ndarray",
    a: float = SWITCHING_A,
    b: float = SWITCHING_B,
) -> "np.ndarray":
    """Vectorized :func:`wire_delay` over arrays of stages and lengths.

    One call evaluates Eq. (3) for a whole layer-pair worth of wire
    groups at once (``stages`` and ``lengths`` broadcast against each
    other), which is what lets the assignment-table build and the
    batched feasibility kernels stay free of per-wire Python loops.
    Returns a float array of the broadcast shape.
    """
    import numpy as np

    stages = np.asarray(stages, dtype=float)
    lengths = np.asarray(lengths, dtype=float)
    if size <= 0:
        raise DelayModelError(f"repeater size must be positive, got {size!r}")
    if lengths.size and np.any(lengths < 0):
        raise DelayModelError("wire lengths must be non-negative")
    if stages.size and np.any(stages < 1):
        raise DelayModelError("stage counts must be at least 1")
    intrinsic = b * device.intrinsic_delay * stages
    linear = (
        b
        * (
            rc.capacitance * device.output_resistance / size
            + rc.resistance * device.input_capacitance * size
        )
        * lengths
    )
    quadratic = a * rc.rc_product * lengths ** 2 / stages
    return intrinsic + linear + quadratic
