"""Multi-corner rank: the metric under process/operating variation.

A production sign-off never trusts one corner.  This module evaluates
the rank across a set of *corners* — joint perturbations of device
speed, ILD permittivity, Miller factor and clock — and reports the
worst case, which is the honest single number for an architecture
("the rank you can sign off").

Corners compose with everything else: each corner is just a derived
:class:`~repro.core.problem.RankProblem`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING, Any, Optional, Sequence, Tuple

from ..arch.builder import ArchitectureSpec, build_architecture
from ..errors import RankComputationError
from .sweep import rank_batch

if TYPE_CHECKING:  # runner imported lazily at call time (cycle via persist)
    from ..core.problem import RankProblem
    from ..core.rank import RankResult
    from ..runner.journal import PointFailure, RunJournal


@dataclass(frozen=True)
class Corner:
    """One evaluation corner.

    Attributes
    ----------
    name:
        Display name, e.g. ``"slow-hot"``.
    device_speed:
        Multiplier on the minimum inverter's output resistance (> 1 is
        a slower device).
    permittivity_scale:
        Multiplier on ILD relative permittivity (clamped at >= 1.0
        absolute).
    miller_factor:
        Overrides the Miller coupling factor (None keeps the nominal).
    clock_scale:
        Multiplier on the target clock (> 1 is a harder target).
    """

    name: str
    device_speed: float = 1.0
    permittivity_scale: float = 1.0
    miller_factor: Optional[float] = None
    clock_scale: float = 1.0

    def __post_init__(self) -> None:
        for attr in ("device_speed", "permittivity_scale", "clock_scale"):
            if getattr(self, attr) <= 0:
                raise RankComputationError(
                    f"Corner.{attr} must be positive, got {getattr(self, attr)!r}"
                )
        if self.miller_factor is not None and self.miller_factor < 0:
            raise RankComputationError(
                f"Corner.miller_factor must be non-negative, "
                f"got {self.miller_factor!r}"
            )


#: The conventional four-corner set plus nominal.
STANDARD_CORNERS: Tuple[Corner, ...] = (
    Corner(name="nominal"),
    Corner(name="slow-device", device_speed=1.25),
    Corner(name="fast-device", device_speed=0.8),
    Corner(name="worst-coupling", miller_factor=2.0, permittivity_scale=1.05),
    Corner(name="fast-clock", clock_scale=1.1),
)


def apply_corner(problem: RankProblem, corner: Corner) -> RankProblem:
    """Materialize the problem variant a corner describes."""
    node = problem.die.node
    device = dataclasses.replace(
        node.device,
        output_resistance=node.device.output_resistance * corner.device_speed,
    )
    counts = problem.arch.tier_counts()
    nominal_k = node.dielectric.relative_permittivity
    spec = ArchitectureSpec(
        node=node.with_device(device),
        local_pairs=counts.get("local", 0),
        semi_global_pairs=counts.get("semi_global", 0),
        global_pairs=counts.get("global", 0),
        permittivity=max(1.0, nominal_k * corner.permittivity_scale),
        miller_factor=(
            corner.miller_factor if corner.miller_factor is not None else 2.0
        ),
    )
    die = dataclasses.replace(problem.die, node=spec.node)
    return dataclasses.replace(
        problem,
        arch=build_architecture(spec),
        die=die,
        clock_frequency=problem.clock_frequency * corner.clock_scale,
    )


@dataclass(frozen=True)
class CornerReport:
    """Rank across a corner set.

    Attributes
    ----------
    results:
        ``(corner, result)`` in evaluation order; corners that failed
        under a ``keep_going`` run are absent here and listed in
        ``failures``.
    failures:
        Corners whose evaluation exhausted its retry budget.
    journal:
        Run journal of the batch execution (excluded from equality so
        a resumed report compares equal to an uninterrupted one).
    """

    results: Tuple[Tuple[Corner, RankResult], ...]
    failures: Tuple["PointFailure", ...] = ()
    journal: Optional["RunJournal"] = field(default=None, compare=False)

    @property
    def is_complete(self) -> bool:
        """True iff every requested corner produced a result."""
        return not self.failures

    @property
    def worst(self) -> Tuple[Corner, RankResult]:
        """The binding corner (lowest rank; ties keep first)."""
        if not self.results:
            raise RankComputationError(
                "corner report has no successful corners; "
                "see report.failures for what went wrong"
            )
        return min(self.results, key=lambda item: item[1].rank)

    @property
    def nominal(self) -> Tuple[Corner, RankResult]:
        """The first corner named ``nominal`` (or the first corner)."""
        for corner, result in self.results:
            if corner.name == "nominal":
                return corner, result
        if not self.results:
            raise RankComputationError(
                "corner report has no successful corners; "
                "see report.failures for what went wrong"
            )
        return self.results[0]

    @property
    def guardband(self) -> float:
        """Nominal minus worst normalized rank (the sign-off margin)."""
        return self.nominal[1].normalized - self.worst[1].normalized


def rank_across_corners(
    problem: RankProblem,
    corners: Sequence[Corner] = STANDARD_CORNERS,
    bunch_size: Optional[int] = None,
    repeater_units: int = 512,
    **options: Any,
) -> CornerReport:
    """Evaluate the rank at every corner through the fault-tolerant harness.

    Returns a :class:`CornerReport`; ``report.worst`` is the sign-off
    number.  ``bunch_size`` and ``repeater_units`` go to
    :func:`repro.core.rank.compute_rank`; ``options`` are the batch
    keywords of :func:`repro.analysis.sweep.rank_batch` (``cache``,
    retries, ``keep_going``, checkpoint/resume, ``jobs``; see
    :func:`repro.runner.run_batch`).  Corners keep the WLD fixed, so the
    shared cache is warmed once, on ``problem``.
    """
    if not corners:
        raise RankComputationError("need at least one corner")
    names = [corner.name for corner in corners]
    if len(set(names)) != len(names):
        raise RankComputationError(
            f"corner names must be unique (they key the checkpoint), got {names}"
        )
    outcome = rank_batch(
        "corners",
        [(c.name, c, c.name) for c in corners],
        partial(apply_corner, problem),
        problem,
        bunch_size=bunch_size,
        repeater_units=repeater_units,
        **options,
    )
    return CornerReport(
        results=tuple(
            (corner, outcome.results[corner.name])
            for corner in corners
            if corner.name in outcome.results
        ),
        failures=outcome.failures,
        journal=outcome.journal,
    )
