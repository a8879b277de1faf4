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
from functools import partial
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple, Union

from ..analysis.sweep import RankEvaluator, rank_batch
from ..arch.builder import ArchitectureSpec
from ..core.problem import RankProblem
from ..core.rank import RankResult
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

#: Improving moves a hill climb takes at most before it stops.
MAX_CLIMB_STEPS = 50

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


def _candidate_problem(
    problem: RankProblem, shielding_aware: bool, spec: ArchitectureSpec
) -> RankProblem:
    """The problem with ``spec``'s tier counts, K and M (and, when
    shielding-aware, its shield-track utilization cost).

    Every other knob of the problem's own spec (tier scaling, the
    capacitance model) is kept.
    """
    variant = problem.with_spec(
        local_pairs=spec.local_pairs,
        semi_global_pairs=spec.semi_global_pairs,
        global_pairs=spec.global_pairs,
        permittivity=spec.permittivity,
        miller_factor=spec.miller_factor,
    )
    if shielding_aware:
        factor = shielding_capacity_factor(spec.miller_factor)
        variant = dataclasses.replace(
            variant, utilization=problem.utilization * factor
        )
    return variant


def evaluate_candidates_batch(
    problem: RankProblem,
    specs: Sequence[ArchitectureSpec],
    shielding_aware: bool = False,
    **options,
) -> Tuple[List[CandidateResult], "BatchOutcome"]:
    """Rank every candidate through the fault-tolerant harness.

    Returns the completed candidates (evaluation order) plus the
    :class:`~repro.runner.BatchOutcome` carrying failures and the run
    journal.  ``options`` are the batch keywords of
    :func:`~repro.analysis.sweep.rank_batch` (``cache``, retries,
    ``keep_going``, checkpoint/resume, ``jobs``; see
    :func:`repro.runner.run_batch`) plus
    :func:`~repro.core.rank.compute_rank` keywords.  Checkpoints store
    only the rank results; candidates are re-derived from the
    (deterministic) spec enumeration on resume.  The shared cache is
    warmed on ``problem``: only the architecture varies, never the WLD.
    """
    labels = [_spec_label(spec) for spec in specs]
    keys = [f"[{i}] {label}" for i, label in enumerate(labels)]
    outcome = rank_batch(
        "optimize",
        list(zip(keys, specs, labels)),
        partial(_candidate_problem, problem, shielding_aware),
        problem,
        **options,
    )
    results = [
        CandidateResult(spec=spec, result=outcome.results[key])
        for key, spec in zip(keys, specs)
        if key in outcome.results
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


def pareto_front(candidates: Sequence[CandidateResult]) -> List[CandidateResult]:
    """Non-dominated candidates: maximal rank, fewest metal layers.

    A candidate is kept iff no other candidate has both >= rank and
    <= layers with at least one strict.  Output is sorted by layers.
    """
    kept: List[CandidateResult] = []
    for candidate in candidates:
        dominated = False
        for other in candidates:
            if other is candidate:
                continue
            better_rank = other.result.rank >= candidate.result.rank
            better_cost = other.metal_layers <= candidate.metal_layers
            strictly = (
                other.result.rank > candidate.result.rank
                or other.metal_layers < candidate.metal_layers
            )
            if better_rank and better_cost and strictly:
                dominated = True
                break
        if not dominated:
            kept.append(candidate)
    # dedupe identical (rank, layers) points, keep first
    seen = set()
    unique: List[CandidateResult] = []
    for candidate in sorted(kept, key=lambda c: (c.metal_layers, -c.result.rank)):
        key = (candidate.result.rank, candidate.metal_layers)
        if key not in seen:
            seen.add(key)
            unique.append(candidate)
    return unique


def hill_climb(
    problem: RankProblem,
    space: DesignSpace,
    initial: Optional[ArchitectureSpec] = None,
    shielding_aware: bool = False,
    policy: Optional["RetryPolicy"] = None,
    keep_going: bool = False,
    journal: Optional["RunJournal"] = None,
    cache: Optional["PrecomputeCache"] = None,
    **solve_options,
) -> List[CandidateResult]:
    """Best-improvement hill climb over single-knob moves.

    Returns the trajectory (including the start); the last element is a
    local optimum of the neighbourhood, or the candidate reached after
    :data:`MAX_CLIMB_STEPS` moves.  Already-evaluated specs are
    memoized so the climb never re-solves a candidate, and a
    :class:`~repro.core.precompute.PrecomputeCache` (a fresh one unless
    passed in) shares the coarse WLD across every candidate.

    Each candidate solve runs under the fault-tolerant harness'
    per-point executor: with ``keep_going=True`` a failing neighbour is
    treated as infeasible (skipped, recorded in ``journal``) instead of
    aborting the climb; the starting candidate failing always raises
    :class:`~repro.errors.RunnerError` — there is nothing to climb from.
    """
    from ..runner.executor import PointSpec, execute_point
    from ..runner.policy import RetryPolicy

    policy = policy if policy is not None else RetryPolicy()
    current_spec = initial if initial is not None else space.default_spec()
    solved: Dict[tuple, Optional[RankResult]] = {}
    evaluate = RankEvaluator.warmed(
        partial(_candidate_problem, problem, shielding_aware),
        problem,
        cache,
        solve_options,
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
    for _ in range(MAX_CLIMB_STEPS):
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
