"""Search strategies over architecture design spaces.

Small spaces (the realistic case: a handful of tier allocations times a
few material classes) are evaluated exhaustively; larger spaces get a
first-improvement hill climb over single-knob moves.  Both report
:class:`CandidateResult` rows, and :func:`pareto_front` extracts the
rank-vs-metal-layers frontier a BEOL roadmap discussion needs.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..arch.builder import ArchitectureSpec, build_architecture
from ..core.problem import RankProblem
from ..core.rank import RankResult, compute_rank
from ..errors import RankComputationError, RunnerError
from ..rc.noise import SHIELDING_LADDER
from .space import DesignSpace

if TYPE_CHECKING:  # runner imported lazily at call time (cycle via persist)
    from pathlib import Path

    from ..faultkit.schedule import FaultSchedule

    from ..core.precompute import PrecomputeCache
    from ..runner.executor import BatchOutcome
    from ..runner.journal import PointFailure, RunJournal
    from ..runner.policy import RetryPolicy

#: Miller factor -> routing-capacity fraction under shielding-aware
#: evaluation, from the standard shielding ladder (noise module).
_SHIELDING_CAPACITY = {
    policy.miller_factor: policy.capacity_factor for policy in SHIELDING_LADDER
}


def shielding_capacity_factor(miller_factor: float) -> float:
    """Routing capacity left after buying a Miller factor via shields.

    Exact ladder points (2.0 / 1.5 / 1.0) use their policies; values in
    between interpolate linearly on tracks-per-signal — a conservative
    smooth model of partial shielding.
    """
    if miller_factor in _SHIELDING_CAPACITY:
        return _SHIELDING_CAPACITY[miller_factor]
    ladder = sorted(SHIELDING_LADDER, key=lambda p: p.miller_factor)
    if miller_factor >= ladder[-1].miller_factor:
        return ladder[-1].capacity_factor
    if miller_factor <= ladder[0].miller_factor:
        return ladder[0].capacity_factor
    for low, high in zip(ladder, ladder[1:]):
        if low.miller_factor <= miller_factor <= high.miller_factor:
            span = high.miller_factor - low.miller_factor
            t = (miller_factor - low.miller_factor) / span
            tracks = low.tracks_per_signal + t * (
                high.tracks_per_signal - low.tracks_per_signal
            )
            return 1.0 / tracks
    return 1.0  # unreachable; ladder covers the interval


@dataclass(frozen=True)
class CandidateResult:
    """One evaluated architecture candidate.

    Attributes
    ----------
    spec:
        The candidate's declarative description.
    result:
        Its rank result on the study design.
    """

    spec: ArchitectureSpec
    result: RankResult

    @property
    def metal_layers(self) -> int:
        """Total metal layers the candidate builds (2 per pair)."""
        return 2 * self.spec.num_pairs

    @property
    def normalized(self) -> float:
        """Normalized rank (0 when the WLD does not fit)."""
        return self.result.normalized

    def label(self) -> str:
        """Compact human-readable candidate label."""
        return (
            f"G{self.spec.global_pairs}/SG{self.spec.semi_global_pairs}"
            f"/L{self.spec.local_pairs} k={self.spec.permittivity:g} "
            f"M={self.spec.miller_factor:g}"
        )


@dataclass(frozen=True)
class OptimizationResult:
    """Outcome of an architecture search.

    Attributes
    ----------
    best:
        Highest-rank candidate (ties broken toward fewer metal layers).
    evaluated:
        Every candidate evaluated, in evaluation order.
    pareto:
        The rank-vs-layers frontier among the evaluated candidates.
    failures:
        Candidates whose evaluation failed under a ``keep_going``
        search (empty for a clean search).
    journal:
        Run journal of the underlying batch execution, when the search
        ran through the fault-tolerant harness.
    """

    best: CandidateResult
    evaluated: Tuple[CandidateResult, ...]
    pareto: Tuple[CandidateResult, ...]
    failures: Tuple["PointFailure", ...] = ()
    journal: Optional["RunJournal"] = field(default=None, compare=False)


def _solve(
    problem: RankProblem,
    spec: ArchitectureSpec,
    solve_options,
    shielding_aware: bool = False,
) -> RankResult:
    variant = problem.with_arch(build_architecture(spec))
    if shielding_aware:
        factor = shielding_capacity_factor(spec.miller_factor)
        variant = dataclasses.replace(
            variant, utilization=problem.utilization * factor
        )
    return compute_rank(variant, **solve_options)


@dataclass
class _CandidateEvaluate:
    """Picklable candidate evaluator (see :class:`..analysis.sweep._SweepEvaluate`)."""

    problem: RankProblem
    shielding_aware: bool
    solve_options: Dict[str, object]

    def __call__(self, point, attempt) -> RankResult:
        from ..runner.policy import scaled_bunch_size

        options = dict(self.solve_options)
        if "bunch_size" in options:
            options["bunch_size"] = scaled_bunch_size(
                options["bunch_size"], dict(attempt.degradation)
            )
        options["deadline"] = attempt.deadline
        return _solve(self.problem, point.value, options, self.shielding_aware)


def evaluate_candidates_batch(
    problem: RankProblem,
    specs: Sequence[ArchitectureSpec],
    shielding_aware: bool = False,
    policy: Optional["RetryPolicy"] = None,
    keep_going: bool = False,
    checkpoint: Optional[Union[str, "Path"]] = None,
    resume: bool = False,
    jobs: int = 1,
    pool_mode: str = "auto",
    checkpoint_every: int = 1,
    fault_schedule: Optional[FaultSchedule] = None,
    cache: Optional["PrecomputeCache"] = None,
    **solve_options,
) -> Tuple[List[CandidateResult], "BatchOutcome"]:
    """Rank every candidate through the fault-tolerant harness.

    Returns the completed candidates (evaluation order) plus the
    :class:`~repro.runner.BatchOutcome` carrying failures and the run
    journal.  Checkpoints store only the rank results; candidates are
    re-derived from the (deterministic) spec enumeration on resume.
    ``jobs > 1`` evaluates candidates in parallel with identical
    results; ``cache`` shares the coarse WLD (identical across every
    candidate — only the architecture varies) and repeated tables.
    """
    # Imported here, not at module top: the runner package reaches
    # analysis.sweep through repro.reporting.persist.
    from ..core.precompute import PrecomputeCache
    from ..reporting.persist import rank_result_from_dict, rank_result_to_dict
    from ..runner.executor import PointSpec, run_batch

    points = [
        PointSpec(
            key=f"[{i}] {_spec_label(spec)}",
            value=spec,
            label=_spec_label(spec),
        )
        for i, spec in enumerate(specs)
    ]

    if cache is None:
        cache = PrecomputeCache()
    cache.warm(
        problem,
        bunch_size=solve_options.get("bunch_size"),
        max_groups=solve_options.get("max_groups"),
    )
    options = dict(solve_options)
    options["cache"] = cache
    evaluate = _CandidateEvaluate(
        problem=problem,
        shielding_aware=shielding_aware,
        solve_options=options,
    )

    outcome = run_batch(
        "optimize",
        points,
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
    results = [
        CandidateResult(spec=point.value, result=outcome.results[point.key])
        for point in points
        if point.key in outcome.results
    ]
    return results, outcome


def _spec_label(spec: ArchitectureSpec) -> str:
    """Checkpoint-stable candidate label (mirrors CandidateResult.label)."""
    return (
        f"G{spec.global_pairs}/SG{spec.semi_global_pairs}"
        f"/L{spec.local_pairs} k={spec.permittivity:g} "
        f"M={spec.miller_factor:g}"
    )


def evaluate_candidates(
    problem: RankProblem,
    specs: Sequence[ArchitectureSpec],
    shielding_aware: bool = False,
    **solve_options,
) -> List[CandidateResult]:
    """Rank every candidate architecture on the problem's design.

    With ``shielding_aware=True``, a candidate's Miller factor is
    assumed to be bought with shield wires, and its routing utilization
    pays the corresponding track cost (1x / 2x / 3x tracks per signal
    for M = 2.0 / 1.5 / 1.0) — the honest version of the M knob.

    Accepts the harness keywords of :func:`evaluate_candidates_batch`
    (``policy`` / ``keep_going`` / ``checkpoint`` / ``resume``) and
    returns just the completed candidates.
    """
    results, _ = evaluate_candidates_batch(
        problem, specs, shielding_aware=shielding_aware, **solve_options
    )
    return results


def pareto_front(
    candidates: Sequence[CandidateResult],
    cost: Callable[[CandidateResult], float] = lambda c: c.metal_layers,
) -> List[CandidateResult]:
    """Non-dominated candidates: maximal rank, minimal cost.

    A candidate is kept iff no other candidate has both >= rank and
    <= cost with at least one strict.  Output is sorted by cost.
    """
    kept: List[CandidateResult] = []
    for candidate in candidates:
        dominated = False
        for other in candidates:
            if other is candidate:
                continue
            better_rank = other.result.rank >= candidate.result.rank
            better_cost = cost(other) <= cost(candidate)
            strictly = (
                other.result.rank > candidate.result.rank
                or cost(other) < cost(candidate)
            )
            if better_rank and better_cost and strictly:
                dominated = True
                break
        if not dominated:
            kept.append(candidate)
    # dedupe identical (rank, cost) points, keep first
    seen = set()
    unique: List[CandidateResult] = []
    for candidate in sorted(kept, key=lambda c: (cost(c), -c.result.rank)):
        key = (candidate.result.rank, cost(candidate))
        if key not in seen:
            seen.add(key)
            unique.append(candidate)
    return unique


def hill_climb(
    problem: RankProblem,
    space: DesignSpace,
    initial: Optional[ArchitectureSpec] = None,
    max_steps: int = 50,
    shielding_aware: bool = False,
    policy: Optional["RetryPolicy"] = None,
    keep_going: bool = False,
    journal: Optional["RunJournal"] = None,
    cache: Optional["PrecomputeCache"] = None,
    **solve_options,
) -> List[CandidateResult]:
    """Best-improvement hill climb over single-knob moves.

    Returns the trajectory (including the start); the last element is a
    local optimum of the neighbourhood.  Already-evaluated specs are
    memoized so the climb never re-solves a candidate, and a
    :class:`~repro.core.precompute.PrecomputeCache` (a fresh one unless
    passed in) shares the coarse WLD across every candidate.

    Each candidate solve runs under the fault-tolerant harness'
    per-point executor: with ``keep_going=True`` a failing neighbour is
    treated as infeasible (skipped, recorded in ``journal``) instead of
    aborting the climb; the starting candidate failing always raises
    :class:`~repro.errors.RunnerError` — there is nothing to climb from.
    """
    from ..core.precompute import PrecomputeCache
    from ..runner.executor import PointSpec, execute_point
    from ..runner.policy import RetryPolicy

    if max_steps < 1:
        raise RankComputationError(f"max_steps must be positive, got {max_steps!r}")
    policy = policy if policy is not None else RetryPolicy()
    current_spec = initial if initial is not None else space.default_spec()
    solved: Dict[tuple, Optional[RankResult]] = {}
    if cache is None:
        cache = PrecomputeCache()
    cache.warm(
        problem,
        bunch_size=solve_options.get("bunch_size"),
        max_groups=solve_options.get("max_groups"),
    )
    options = dict(solve_options)
    options["cache"] = cache
    evaluate = _CandidateEvaluate(
        problem=problem,
        shielding_aware=shielding_aware,
        solve_options=options,
    )

    def key(spec: ArchitectureSpec) -> tuple:
        # TechnologyNode holds dicts (unhashable); key on the knobs.
        return (
            spec.local_pairs,
            spec.semi_global_pairs,
            spec.global_pairs,
            spec.permittivity,
            spec.miller_factor,
        )

    def solve(spec: ArchitectureSpec) -> Optional[RankResult]:
        k = key(spec)
        if k not in solved:
            label = _spec_label(spec)
            outcome = execute_point(
                PointSpec(key=label, value=spec, label=label), evaluate, policy
            )
            if journal is not None:
                journal.add(outcome.record)
            if not outcome.ok and not keep_going:
                raise RunnerError(
                    f"hill climb: candidate {label!r} failed after "
                    f"{len(outcome.record.attempts)} attempt(s): "
                    f"{outcome.record.attempts[-1].error_message}"
                )
            solved[k] = outcome.result if outcome.ok else None
        return solved[k]

    start = solve(current_spec)
    if start is None:
        raise RunnerError(
            f"hill climb: starting candidate {_spec_label(current_spec)!r} "
            "failed; there is nothing to climb from"
        )
    trajectory = [CandidateResult(spec=current_spec, result=start)]
    for _ in range(max_steps):
        current = trajectory[-1]
        best_move: Optional[CandidateResult] = None
        for neighbour in space.neighbours(current.spec):
            result = solve(neighbour)
            if result is None:
                continue  # failed under keep_going: treat as infeasible
            candidate = CandidateResult(spec=neighbour, result=result)
            if best_move is None or candidate.result.rank > best_move.result.rank:
                best_move = candidate
        if best_move is None or best_move.result.rank <= current.result.rank:
            break  # local optimum
        trajectory.append(best_move)
    return trajectory


def optimize_architecture(
    problem: RankProblem,
    space: DesignSpace,
    exhaustive_limit: int = 64,
    shielding_aware: bool = False,
    policy: Optional["RetryPolicy"] = None,
    keep_going: bool = False,
    checkpoint: Optional[Union[str, "Path"]] = None,
    resume: bool = False,
    jobs: int = 1,
    pool_mode: str = "auto",
    checkpoint_every: int = 1,
    fault_schedule: Optional[FaultSchedule] = None,
    cache: Optional["PrecomputeCache"] = None,
    **solve_options,
) -> OptimizationResult:
    """Search a design space for the highest-rank architecture.

    Spaces up to ``exhaustive_limit`` candidates are enumerated fully;
    larger ones are hill-climbed from the space's smallest candidate.
    ``shielding_aware=True`` charges each candidate's Miller factor its
    shield-track cost (see :func:`shielding_capacity_factor`).

    The search runs through the fault-tolerant harness: ``policy``
    bounds per-candidate attempts and wall-clock, ``keep_going`` skips
    failing candidates instead of aborting, and ``checkpoint`` /
    ``resume`` journal the exhaustive enumeration across interruptions
    (the adaptive hill climb supports isolation, retries, and the
    shared precompute ``cache``, but not checkpointing or ``jobs`` —
    its moves are sequentially dependent).

    Returns
    -------
    OptimizationResult
        Best candidate, all evaluations, the rank-vs-layers Pareto
        frontier, plus any failures and the run journal.
    """
    size = space.size()
    if size == 0:
        raise RankComputationError("design space enumerates no candidates")
    if size <= exhaustive_limit:
        evaluated, outcome = evaluate_candidates_batch(
            problem,
            list(space),
            shielding_aware=shielding_aware,
            policy=policy,
            keep_going=keep_going,
            checkpoint=checkpoint,
            resume=resume,
            jobs=jobs,
            pool_mode=pool_mode,
            checkpoint_every=checkpoint_every,
            fault_schedule=fault_schedule,
            cache=cache,
            **solve_options,
        )
        failures, journal = outcome.failures, outcome.journal
    else:
        from ..runner.journal import RunJournal

        if checkpoint is not None or resume:
            raise RunnerError(
                "checkpoint/resume requires the exhaustive search path; "
                f"this space has {size} candidates > exhaustive_limit="
                f"{exhaustive_limit} and would hill-climb"
            )
        journal = RunJournal(name="optimize")
        evaluated = hill_climb(
            problem,
            space,
            shielding_aware=shielding_aware,
            policy=policy,
            keep_going=keep_going,
            journal=journal,
            cache=cache,
            **solve_options,
        )
        failures = journal.failures()
    if not evaluated:
        raise RunnerError(
            "architecture search: every candidate failed; "
            "see the run journal for per-candidate errors"
        )
    best = max(
        evaluated, key=lambda c: (c.result.rank, -c.metal_layers)
    )
    return OptimizationResult(
        best=best,
        evaluated=tuple(evaluated),
        pareto=tuple(pareto_front(evaluated)),
        failures=failures,
        journal=journal,
    )
