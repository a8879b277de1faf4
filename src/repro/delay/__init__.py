"""Delay models and repeater insertion.

Each formula has one NumPy-broadcasting implementation that takes
scalars or arrays alike:

* :mod:`repro.delay.ottenbrayton` — the paper's Eqs. (2)-(3) wire delay
  (Otten--Brayton planning model, a = 0.4, b = 0.7),
* :mod:`repro.delay.repeater` — optimal repeater sizing (Eq. (4)) and the
  minimal repeater counts meeting target delays (closed-form solution of
  the Eq. (3) quadratic, equivalent to the paper's incremental
  insertion; ``-1`` marks a wire that can never meet its target),
* :mod:`repro.delay.target` — target-delay models: the paper's linear
  ``d_i = (l_i / l_max) / f_c`` plus the quadratic alternative its
  Section 6 flags as future work.
"""

from .ottenbrayton import wire_delay
from .repeater import min_stages_for_target, optimal_repeater_size
from .target import LinearTargetModel, QuadraticTargetModel, TargetDelayModel

__all__ = [
    "wire_delay",
    "optimal_repeater_size",
    "min_stages_for_target",
    "TargetDelayModel",
    "LinearTargetModel",
    "QuadraticTargetModel",
]
