"""Parameter sweeps: the paper's Table 4.

Each sweep varies one knob of the Table 2 baseline and records the
normalized rank, mirroring the four columns of Table 4:

* ``K`` — ILD permittivity 3.9 down to 1.8,
* ``M`` — Miller coupling factor 2.0 down to 1.0,
* ``C`` — target clock 500 MHz up to 1.7 GHz,
* ``R`` — repeater area fraction 0.1 up to 0.5.

The paper's own measured values are included as ``PAPER_TABLE4_*`` so
benchmarks and EXPERIMENTS.md can print paper-vs-reproduction tables
without copying numbers around.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..arch.builder import ArchitectureSpec, build_architecture
from ..core.problem import RankProblem
from ..core.rank import RankResult, compute_rank
from ..errors import RankComputationError

if TYPE_CHECKING:  # runner imported lazily at call time (cycle via persist)
    from pathlib import Path

    from ..faultkit.schedule import FaultSchedule

    from ..core.precompute import PrecomputeCache
    from ..runner.executor import BatchOutcome
    from ..runner.journal import PointFailure, RunJournal
    from ..runner.policy import RetryPolicy

#: Table 4 of the paper, column K: (ILD permittivity, normalized rank).
PAPER_TABLE4_K: Tuple[Tuple[float, float], ...] = (
    (3.90, 0.397288), (3.80, 0.402596), (3.70, 0.407019), (3.60, 0.413212),
    (3.50, 0.418520), (3.40, 0.424713), (3.30, 0.430021), (3.20, 0.437098),
    (3.10, 0.444175), (3.00, 0.450368), (2.90, 0.458330), (2.80, 0.465364),
    (2.70, 0.474210), (2.60, 0.482172), (2.50, 0.491904), (2.40, 0.501635),
    (2.30, 0.512251), (2.20, 0.522867), (2.10, 0.534368), (2.00, 0.547637),
    (1.90, 0.560907), (1.80, 0.575947),
)

#: Table 4 of the paper, column M: (Miller factor, normalized rank).
PAPER_TABLE4_M: Tuple[Tuple[float, float], ...] = (
    (2.00, 0.397288), (1.95, 0.401711), (1.90, 0.407019), (1.85, 0.412327),
    (1.80, 0.418520), (1.75, 0.423828), (1.70, 0.429136), (1.65, 0.435329),
    (1.60, 0.441521), (1.55, 0.449483), (1.50, 0.456561), (1.45, 0.463594),
    (1.40, 0.471556), (1.35, 0.479518), (1.30, 0.488365), (1.25, 0.498096),
    (1.20, 0.507828), (1.15, 0.518444), (1.10, 0.529060), (1.05, 0.540560),
    (1.00, 0.553830),
)

#: Table 4 of the paper, column C: (clock frequency Hz, normalized rank).
PAPER_TABLE4_C: Tuple[Tuple[float, float], ...] = (
    (5.00e8, 0.397288), (6.00e8, 0.391980), (7.00e8, 0.388441),
    (8.00e8, 0.385787), (9.00e8, 0.384018), (1.00e9, 0.382249),
    (1.10e9, 0.309706), (1.20e9, 0.309706), (1.30e9, 0.309706),
    (1.40e9, 0.309706), (1.50e9, 0.309706), (1.60e9, 0.235608),
    (1.70e9, 0.235608),
)

#: Table 4 of the paper, column R: (repeater fraction, normalized rank).
PAPER_TABLE4_R: Tuple[Tuple[float, float], ...] = (
    (0.10, 0.117438), (0.20, 0.210967), (0.30, 0.303728),
    (0.40, 0.397288), (0.50, 0.491019),
)

#: Default coarsening used by sweeps — the paper's Section 5.2 bunch size.
DEFAULT_BUNCH_SIZE = 10_000

#: What a rank batch's solve options are checked against.
_SOLVE_SIGNATURE = inspect.signature(compute_rank)


@dataclass(frozen=True)
class SweepPoint:
    """One row of a sweep: knob value, result, and paper value if known."""

    value: float
    result: RankResult
    paper_normalized: Optional[float] = None

    @property
    def normalized(self) -> float:
        """Normalized rank of the reproduction at this point."""
        return self.result.normalized


@dataclass(frozen=True)
class SweepResult:
    """A (possibly partial) sweep over one knob.

    Attributes
    ----------
    name:
        Knob name: ``"K"``, ``"M"``, ``"C"`` or ``"R"`` (or a custom
        label for user-defined sweeps).
    points:
        *Completed* sweep rows in the order swept.  Under a
        ``keep_going`` run, failed points are absent here and recorded
        in ``failures`` instead — a gap is always explicit.
    failures:
        Points that exhausted their retry budget (empty for a clean
        run).
    journal:
        Run journal of the batch execution, when the sweep ran through
        the fault-tolerant harness.  Excluded from equality so a
        resumed sweep compares equal to an uninterrupted one.
    """

    name: str
    points: Tuple[SweepPoint, ...]
    failures: Tuple["PointFailure", ...] = ()
    journal: Optional["RunJournal"] = field(default=None, compare=False)

    @property
    def is_complete(self) -> bool:
        """True iff every requested point produced a result."""
        return not self.failures

    def failed_values(self) -> List[float]:
        """Knob values whose evaluation failed, in sweep order."""
        return [f.value for f in self.failures]

    def values(self) -> List[float]:
        """Swept knob values (completed points only)."""
        return [p.value for p in self.points]

    def normalized_ranks(self) -> List[float]:
        """Reproduced normalized ranks, one per point."""
        return [p.normalized for p in self.points]

    def paper_ranks(self) -> List[Optional[float]]:
        """Paper-reported normalized ranks (None where unknown)."""
        return [p.paper_normalized for p in self.points]

    def improvement(self) -> float:
        """Relative rank change from the first point to the last."""
        first = self.points[0].normalized
        last = self.points[-1].normalized
        if first == 0:
            raise RankComputationError(
                f"sweep {self.name!r}: first point has rank 0, "
                "improvement undefined"
            )
        return (last - first) / first

    def is_monotone(self, non_increasing: bool = False) -> bool:
        """Whether normalized rank is monotone along the sweep."""
        ranks = self.normalized_ranks()
        pairs = zip(ranks, ranks[1:])
        if non_increasing:
            return all(a >= b - 1e-12 for a, b in pairs)
        return all(a <= b + 1e-12 for a, b in pairs)


@dataclass
class RankEvaluator:
    """The picklable ``(point, attempt) -> RankResult`` of every rank batch.

    ``make_problem`` maps a point's value to the :class:`RankProblem` to
    solve; it must pickle (a module-level function, a
    :func:`functools.partial` of one, or a dataclass instance, not a
    closure) so ``jobs > 1`` can ship the evaluator, warmed ``cache``
    included, to the pool workers.  ``options`` are
    :func:`~repro.core.rank.compute_rank` keywords; every attempt
    coarsens ``bunch_size`` along the retry policy's ladder and runs
    under the attempt's deadline.  Solves go through this module's
    ``compute_rank`` name, which ``bench/library.py`` wraps to trace a
    sweep's solves and the tests patch to fail them.
    """

    make_problem: Callable[[Any], RankProblem]
    options: Dict[str, Any]
    cache: "PrecomputeCache"

    @classmethod
    def warmed(
        cls,
        make_problem: Callable[[Any], RankProblem],
        warm: Optional[RankProblem],
        cache: Optional["PrecomputeCache"],
        options: Dict[str, Any],
    ) -> "RankEvaluator":
        """An evaluator whose cache (a fresh one unless given) already
        holds ``warm``'s coarse WLD, computed before any worker forks.

        Raises ``TypeError`` for an option ``compute_rank`` does not take.
        """
        # Imported here, not at module top: repro.reporting.persist
        # imports this module, and the runner package imports persist.
        from ..core.precompute import PrecomputeCache

        _SOLVE_SIGNATURE.bind(warm, **options)
        if cache is None:
            cache = PrecomputeCache()
        if warm is not None:
            cache.warm(
                warm,
                bunch_size=options.get("bunch_size"),
                max_groups=options.get("max_groups"),
            )
        return cls(make_problem, options, cache)

    def __call__(self, point, attempt) -> RankResult:
        from ..runner.policy import scaled_bunch_size

        options = dict(
            self.options,
            bunch_size=scaled_bunch_size(
                self.options.get("bunch_size"), attempt.degradation
            ),
            deadline=attempt.deadline,
            cache=self.cache,
        )
        return compute_rank(self.make_problem(point.value), **options)


def rank_batch(
    run: str,
    points: Sequence[Tuple[str, Any, str]],
    make_problem: Callable[[Any], RankProblem],
    warm: Optional[RankProblem],
    cache: Optional["PrecomputeCache"] = None,
    policy: Optional["RetryPolicy"] = None,
    keep_going: bool = False,
    checkpoint: Optional[Union[str, "Path"]] = None,
    resume: bool = False,
    jobs: int = 1,
    pool_mode: str = "auto",
    checkpoint_every: int = 1,
    fault_schedule: Optional["FaultSchedule"] = None,
    **solve_options: Any,
) -> "BatchOutcome":
    """Rank every point through :func:`repro.runner.run_batch`.

    The one batch driver behind sweeps, corner sign-off and exhaustive
    architecture search.  ``points`` are ``(key, value, label)`` triples
    (see :class:`~repro.runner.PointSpec`); each is solved by a
    :class:`RankEvaluator` over ``make_problem`` and the
    :func:`~repro.core.rank.compute_rank` keywords ``solve_options``;
    ``warm`` (a representative problem, or ``None``) pre-fills the
    shared ``cache``.  ``checkpoint`` is ``run_batch``'s
    ``checkpoint_path``; it and the other batch keywords are documented
    there.  Checkpoints hold
    :func:`~repro.reporting.persist.rank_result_to_dict` payloads.
    """
    from ..reporting.persist import rank_result_from_dict, rank_result_to_dict
    from ..runner.executor import PointSpec, run_batch

    return run_batch(
        run,
        [PointSpec(key, value, label) for key, value, label in points],
        RankEvaluator.warmed(make_problem, warm, cache, solve_options),
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


def run_sweep(
    name: str,
    values: Sequence[float],
    make_problem: Callable[[float], RankProblem],
    paper: Optional[Dict[float, float]] = None,
    solver: str = "dp",
    bunch_size: Optional[int] = DEFAULT_BUNCH_SIZE,
    max_groups: Optional[int] = None,
    repeater_units: int = 512,
    **options: Any,
) -> SweepResult:
    """Generic sweep engine: evaluate rank at each knob value.

    ``make_problem`` maps a knob value to the :class:`RankProblem` to
    solve (picklable when ``jobs > 1``); ``paper`` optionally maps knob
    values to the paper's normalized ranks.  ``solver``,
    ``bunch_size``, ``max_groups`` and ``repeater_units`` go to
    :func:`repro.core.rank.compute_rank`.  ``options`` are the batch
    keywords of :func:`rank_batch` (``cache``, ``policy``,
    ``keep_going``, ``checkpoint``, ``resume``, ``jobs``,
    ``pool_mode``, ``checkpoint_every``, ``fault_schedule``; see
    :func:`repro.runner.run_batch`).  The cache is warmed on the first
    value's coarse WLD.
    """
    keys = [f"{name}[{i}]={value!r}" for i, value in enumerate(values)]
    outcome = rank_batch(
        f"sweep:{name}",
        [(key, value, f"{name}={value:g}") for key, value in zip(keys, values)],
        make_problem,
        make_problem(values[0]) if values else None,
        solver=solver,
        bunch_size=bunch_size,
        max_groups=max_groups,
        repeater_units=repeater_units,
        **options,
    )
    points = [
        SweepPoint(
            value=value,
            result=outcome.results[key],
            paper_normalized=paper.get(value) if paper else None,
        )
        for key, value in zip(keys, values)
        if key in outcome.results  # a failed point's gap is in failures
    ]
    return SweepResult(
        name=name,
        points=tuple(points),
        failures=outcome.failures,
        journal=outcome.journal,
    )


def _spec_from_problem(problem: RankProblem, **overrides) -> ArchitectureSpec:
    """Rebuild the problem's architecture spec with overridden knobs.

    The architecture object does not retain its spec, so sweeps
    reconstruct it from the problem's die node and tier counts.
    """
    counts = problem.arch.tier_counts()
    base = ArchitectureSpec(
        node=problem.die.node,
        local_pairs=counts.get("local", 0),
        semi_global_pairs=counts.get("semi_global", 0),
        global_pairs=counts.get("global", 0),
    )
    return replace(base, **overrides)


# The point -> problem builders are dataclasses (not closures) so a
# parallel sweep can pickle them to worker processes.


@dataclass(frozen=True)
class _PermittivityMake:
    baseline: RankProblem
    miller_factor: float

    def __call__(self, k: float) -> RankProblem:
        spec = _spec_from_problem(
            self.baseline, permittivity=k, miller_factor=self.miller_factor
        )
        return self.baseline.with_arch(build_architecture(spec))


@dataclass(frozen=True)
class _MillerMake:
    baseline: RankProblem
    permittivity: float

    def __call__(self, m: float) -> RankProblem:
        spec = _spec_from_problem(
            self.baseline, permittivity=self.permittivity, miller_factor=m
        )
        return self.baseline.with_arch(build_architecture(spec))


@dataclass(frozen=True)
class _ClockMake:
    baseline: RankProblem

    def __call__(self, frequency: float) -> RankProblem:
        return self.baseline.with_clock_frequency(frequency)


@dataclass(frozen=True)
class _RepeaterFractionMake:
    baseline: RankProblem

    def __call__(self, fraction: float) -> RankProblem:
        return self.baseline.with_repeater_fraction(fraction)


@dataclass(frozen=True)
class _TierScaleMake:
    baseline: RankProblem
    tier: str

    def __call__(self, factor: float) -> RankProblem:
        spec = _spec_from_problem(self.baseline).with_tier_scaling(
            self.tier, factor
        )
        return self.baseline.with_arch(build_architecture(spec))


def sweep_permittivity(
    baseline: RankProblem,
    values: Optional[Sequence[float]] = None,
    miller_factor: float = 2.0,
    **kwargs,
) -> SweepResult:
    """Table 4 column K: rank vs ILD permittivity (experiment E1)."""
    if values is None:
        values = [k for k, _ in PAPER_TABLE4_K]
    make = _PermittivityMake(baseline=baseline, miller_factor=miller_factor)
    return run_sweep("K", values, make, paper=dict(PAPER_TABLE4_K), **kwargs)


def sweep_miller(
    baseline: RankProblem,
    values: Optional[Sequence[float]] = None,
    permittivity: float = 3.9,
    **kwargs,
) -> SweepResult:
    """Table 4 column M: rank vs Miller coupling factor (experiment E2)."""
    if values is None:
        values = [m for m, _ in PAPER_TABLE4_M]
    make = _MillerMake(baseline=baseline, permittivity=permittivity)
    return run_sweep("M", values, make, paper=dict(PAPER_TABLE4_M), **kwargs)


def sweep_clock(
    baseline: RankProblem,
    values: Optional[Sequence[float]] = None,
    **kwargs,
) -> SweepResult:
    """Table 4 column C: rank vs target clock frequency (experiment E3)."""
    if values is None:
        values = [c for c, _ in PAPER_TABLE4_C]
    return run_sweep(
        "C", values, _ClockMake(baseline), paper=dict(PAPER_TABLE4_C), **kwargs
    )


def sweep_repeater_fraction(
    baseline: RankProblem,
    values: Optional[Sequence[float]] = None,
    **kwargs,
) -> SweepResult:
    """Table 4 column R: rank vs repeater area fraction (experiment E4)."""
    if values is None:
        values = [r for r, _ in PAPER_TABLE4_R]
    return run_sweep(
        "R",
        values,
        _RepeaterFractionMake(baseline),
        paper=dict(PAPER_TABLE4_R),
        **kwargs,
    )


def sweep_tier_geometry(
    baseline: RankProblem,
    tier: str = "global",
    values: Sequence[float] = (0.75, 1.0, 1.25, 1.5, 2.0),
    **kwargs,
) -> SweepResult:
    """Geometric-parameter sweep: rank vs uniform tier scaling (E17).

    The paper's introduction promises quantified comparison of
    "geometric parameters as well as process and material technology
    advances"; this sweep scales one tier's width/spacing/thickness/ILD
    uniformly and reports the rank response.  Scaling a tier up cuts
    its RC (quadratically in resistance) but halves its track count per
    doubling — the classic fat-wire trade-off.
    """
    make = _TierScaleMake(baseline=baseline, tier=tier)
    return run_sweep(f"geometry:{tier}", values, make, **kwargs)
