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
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple, Union

from ..arch.builder import ArchitectureSpec, build_architecture
from ..core.problem import RankProblem
from ..core.rank import RankResult, compute_rank
from ..errors import RankComputationError

if TYPE_CHECKING:  # runner imported lazily at call time (cycle via persist)
    from pathlib import Path

    from ..faultkit.schedule import FaultSchedule

    from ..core.precompute import PrecomputeCache
    from ..runner.journal import PointFailure, RunJournal
    from ..runner.policy import RetryPolicy


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


@dataclass
class _CornerEvaluate:
    """Picklable corner evaluator (see :class:`.sweep._SweepEvaluate`)."""

    problem: RankProblem
    bunch_size: Optional[int]
    repeater_units: int
    cache: Optional["PrecomputeCache"] = None

    def __call__(self, point, attempt) -> RankResult:
        from ..runner.policy import scaled_bunch_size

        variant = apply_corner(self.problem, point.value)
        return compute_rank(
            variant,
            bunch_size=scaled_bunch_size(
                self.bunch_size, dict(attempt.degradation)
            ),
            repeater_units=self.repeater_units,
            deadline=attempt.deadline,
            cache=self.cache,
        )


def rank_across_corners(
    problem: RankProblem,
    corners: Sequence[Corner] = STANDARD_CORNERS,
    bunch_size: Optional[int] = None,
    repeater_units: int = 512,
    policy: Optional["RetryPolicy"] = None,
    keep_going: bool = False,
    checkpoint: Optional[Union[str, "Path"]] = None,
    resume: bool = False,
    jobs: int = 1,
    pool_mode: str = "auto",
    checkpoint_every: int = 1,
    fault_schedule: Optional[FaultSchedule] = None,
    cache: Optional["PrecomputeCache"] = None,
) -> CornerReport:
    """Evaluate the rank at every corner through the fault-tolerant harness.

    Returns a :class:`CornerReport`; ``report.worst`` is the sign-off
    number.  With ``keep_going=True`` a failing corner is recorded in
    ``report.failures`` instead of aborting the sign-off; ``checkpoint``
    / ``resume`` journal completed corners across interruptions, and
    ``jobs > 1`` evaluates corners in parallel with identical persisted
    output (see :func:`repro.runner.run_batch`).  ``cache`` shares the
    coarse-WLD/tables precomputation across corners and retries
    (corners keep the WLD fixed, so it is warmed once in the parent).
    """
    if not corners:
        raise RankComputationError("need at least one corner")
    names = [corner.name for corner in corners]
    if len(set(names)) != len(names):
        raise RankComputationError(
            f"corner names must be unique (they key the checkpoint), got {names}"
        )

    # Imported here, not at module top: the runner package reaches this
    # module through repro.reporting.persist.
    from ..core.precompute import PrecomputeCache
    from ..reporting.persist import rank_result_from_dict, rank_result_to_dict
    from ..runner.executor import PointSpec, run_batch

    specs = [
        PointSpec(key=corner.name, value=corner, label=corner.name)
        for corner in corners
    ]

    if cache is None:
        cache = PrecomputeCache()
    cache.warm(problem, bunch_size=bunch_size)
    evaluate = _CornerEvaluate(
        problem=problem,
        bunch_size=bunch_size,
        repeater_units=repeater_units,
        cache=cache,
    )

    outcome = run_batch(
        "corners",
        specs,
        evaluate,
        policy=policy,
        keep_going=keep_going,
        checkpoint_path=checkpoint,
        resume=resume,
        serialize=rank_result_to_dict,
        deserialize=rank_result_from_dict,
        jobs=jobs,
        pool_mode=pool_mode,
        checkpoint_every=checkpoint_every,
        fault_schedule=fault_schedule,
    )
    results: List[Tuple[Corner, RankResult]] = [
        (corner, outcome.results[corner.name])
        for corner in corners
        if corner.name in outcome.results
    ]
    return CornerReport(
        results=tuple(results),
        failures=outcome.failures,
        journal=outcome.journal,
    )
