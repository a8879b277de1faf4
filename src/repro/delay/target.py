"""Target-delay models.

The paper (Section 4.1) sets the target delay of wire ``i`` to

    d_i = (l_i / l_max) * (1 / f_c)

i.e. proportional to length, with the longest wire allowed one full clock
period.  Its Section 6 notes that a linear requirement becomes
unreasonable because actual delay grows quadratically with length, and
announces study of alternative models — so this module also provides the
quadratic alternative as an ablation
(:class:`QuadraticTargetModel`: ``d_i = (l_i / l_max)^2 / f_c``),
exercised by ``benchmarks/bench_target_models.py``.

Lengths here are *physical* (metres) because targets interact with
physical delay; callers convert WLD gate-pitch lengths via the die model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import ArrayLike

from ..errors import DelayModelError


class TargetDelayModel:
    """Interface: map wire length (metres) to target delay (seconds)."""

    #: longest wire length, metres (set by concrete models)
    max_length: float
    #: target clock frequency, hertz
    clock_frequency: float

    def targets(self, lengths: ArrayLike) -> np.ndarray:
        """Target delays for wires of the given physical lengths."""
        raise NotImplementedError


def _validate(max_length: float, clock_frequency: float) -> None:
    if max_length <= 0:
        raise DelayModelError(
            f"max wire length must be positive, got {max_length!r}"
        )
    if clock_frequency <= 0:
        raise DelayModelError(
            f"clock frequency must be positive, got {clock_frequency!r}"
        )


@dataclass(frozen=True)
class LinearTargetModel(TargetDelayModel):
    """The paper's model: ``d_i = (l_i / l_max) / f_c``.

    Attributes
    ----------
    max_length:
        ``l_max`` in metres: the longest wire of the WLD, which is
        granted exactly one clock period.
    clock_frequency:
        ``f_c`` in hertz (the Table 4 column ``C`` knob).
    """

    max_length: float
    clock_frequency: float

    def __post_init__(self) -> None:
        _validate(self.max_length, self.clock_frequency)

    def targets(self, lengths: ArrayLike) -> np.ndarray:
        arr = np.asarray(lengths, dtype=float)
        if np.any(arr < 0):
            raise DelayModelError("lengths must be non-negative")
        return (arr / self.max_length) / self.clock_frequency


@dataclass(frozen=True)
class QuadraticTargetModel(TargetDelayModel):
    """Section 6's alternative: ``d_i = (l_i / l_max)^2 / f_c``.

    Matches the quadratic growth of unrepeatered RC delay, so short wires
    get proportionally looser targets than under the linear model.
    """

    max_length: float
    clock_frequency: float

    def __post_init__(self) -> None:
        _validate(self.max_length, self.clock_frequency)

    def targets(self, lengths: ArrayLike) -> np.ndarray:
        arr = np.asarray(lengths, dtype=float)
        if np.any(arr < 0):
            raise DelayModelError("lengths must be non-negative")
        ratio = arr / self.max_length
        return ratio * ratio / self.clock_frequency
