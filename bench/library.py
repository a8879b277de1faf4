"""The library workloads: ``solve``, ``table4_sweep`` and ``budget_curve``.

Each workload has a ``measure_*`` function (tracing and ``repro.obs``
off; gives the end-to-end metrics) and a ``trace_*`` function (the same
inputs with spans around every layer; gives the per-layer metrics).

A workload runs whole *rounds* of inputs while another round fits in
``seconds``.  Every round holds the same strata (sizes and options), so
every round and every seed costs about the same, and timings from
different seeds can be compared; the seed only shuffles the order and
moves each problem's gate count by up to 1%, so no two operations of a
run solve the same problem.  Round 0 is the same for every run of a
seed: its outputs are digested and compared with ``expected.json``.
Times are corrected to the host's quiet speed (``stats.Speed``).
"""

from __future__ import annotations

import random
import statistics
import sys
import traceback
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import repro.obs as obs
from repro import api
from repro.analysis import sweep as sweep_mod
from repro.runner import RetryPolicy
from repro.wld.davis import DavisParameters, davis_wld

# Internal imports on purpose: the traced run times layers the facade
# folds into one call (coarsening, tables, discretization, the DP, the
# pack oracles, the curve loop), by rebinding them where their callers
# look them up.
import repro.core.curve as curve_mod  # noqa: RPL004
import repro.core.dp as dp_mod  # noqa: RPL004
import repro.core.dp_numpy as dp_numpy_mod  # noqa: RPL004
import repro.core.precompute as precompute_mod  # noqa: RPL004
import repro.core.rank as rank_mod  # noqa: RPL004
from repro.core.dp import solve_rank_dp  # noqa: RPL004

from stats import GOLDEN_RANK, Samples, Speed, Tally, digest, latency_metrics, rounds, usable_cpus
from tracing import Tracer

NODES = ("180nm", "130nm", "90nm")
RENT_EXPONENT = 0.6
#: Largest relative change the seed makes to a stratum's gate count.
GATE_JITTER = 0.01

#: Table 4 column -> (baseline_problem keyword, sweep call, knob values,
#: the baseline's value).
COLUMNS = {
    "K": ("permittivity", sweep_mod.sweep_permittivity, [v for v, _ in sweep_mod.PAPER_TABLE4_K], 3.9),
    "M": ("miller_factor", sweep_mod.sweep_miller, [v for v, _ in sweep_mod.PAPER_TABLE4_M], 2.0),
    "C": ("clock_frequency", sweep_mod.sweep_clock, [v for v, _ in sweep_mod.PAPER_TABLE4_C], 5.0e8),
    "R": ("repeater_fraction", sweep_mod.sweep_repeater_fraction, [v for v, _ in sweep_mod.PAPER_TABLE4_R], 0.4),
}

#: solve: gate counts of the strata grow geometrically over this range,
#: so the sorted costs have no gaps for a percentile to straddle.
SOLVE_GATES = (500_000, 2_000_000)
SOLVE_STRATA = 24
SOLVE_SMOKE_STRATA = 4
#: (bunch, repeater cells, witness) classes the strata cycle through.
SOLVE_CLASSES = [(b, u, w) for b in (2_000, 10_000) for u in (128, 512) for w in (False, True)]

#: budget_curve: 130 nm, bunch 10000, 128 cells; gate counts over this
#: range, one Table 4 repeater fraction and clock per stratum.
CURVE_GATES = (25_000, 50_000)
CURVE_STRATA = 12
CURVE_SMOKE_STRATA = 2
CURVE_BUNCH = 10_000
CURVE_UNITS = 128

SWEEP_BUNCH = 10_000
SWEEP_UNITS = 512

#: (owner, attribute, span name): where each layer's caller looks it up.
LAYERS = (
    (api.RankProblem, "coarsened_wld", "wld.coarsen"),
    (api.RankProblem, "tables_on", "assign.tables"),
    (precompute_mod, "fingerprint", "precompute.fingerprint"),
    (dp_mod, "discretize_repeaters", "core.discretize"),
    (curve_mod, "discretize_repeaters", "core.discretize"),
    (rank_mod, "solve_rank_dp", "core.dp.solve"),
    (curve_mod, "solve_budget_rank_curve", "core.curve.solve"),
    (dp_mod, "pack_suffix", "assign.pack_suffix"),
    (dp_numpy_mod, "pack_suffix", "assign.pack_suffix"),
    (curve_mod, "pack_suffix", "assign.pack_suffix"),
    (dp_numpy_mod, "pack_required_leftover", "assign.pack_required_leftover"),
)

#: Per-layer time metric -> the span it sums (mean self time per op).
LAYER_TIMES = {
    "wld.coarsen_s": "wld.coarsen",
    "assign.tables_s": "assign.tables",
    "precompute.fingerprint_s": "precompute.fingerprint",
    "core.discretize_s": "core.discretize",
    "core.dp.solve_s": "core.dp.solve",
    "core.curve.solve_s": "core.curve.solve",
    "assign.pack_suffix_s": "assign.pack_suffix",
    "assign.pack_required_leftover_s": "assign.pack_required_leftover",
}

#: The layers whose self times should add up to a ``compute_rank`` call.
SOLVE_PATH = (
    "wld.coarsen", "assign.tables", "core.discretize", "core.dp.solve",
    "assign.pack_suffix", "assign.pack_required_leftover",
)

DP_COUNTS = ("rows", "states_explored", "transitions", "pack_checks", "pack_pruned")


def install(tracer: Tracer) -> None:
    for owner, attr, name in LAYERS:
        tracer.wrap(owner, attr, name)


def failed(tally: Tally, label: str) -> None:
    """Record the exception being handled as a failed operation."""
    traceback.print_exc(file=sys.stderr)
    tally.fail(f"{label}: {sys.exc_info()[1]!r}")


def golden_problem() -> api.RankProblem:
    return api.baseline_problem("130nm", 1_000_000)


def setup(tally: Tally, tracer: Optional[Tracer] = None) -> None:
    """Import, first problem and the untimed warm-up op: the golden solve.

    With a tracer the layers are wrapped, so the first solve of the
    process is recorded (``core.dp.solve_cold_s``); its speed factor is
    kept as that of the spans outside any operation.
    """
    tally.attempted += 1

    def golden() -> int:
        return api.compute_rank(golden_problem(), bunch_size=10_000, repeater_units=512).rank

    if tracer is None:
        rank = golden()
    else:
        install(tracer)
        try:
            rank, _, tracer.factors[-1] = Speed().time(golden)
        finally:
            tracer.unwrap()
    tally.check(rank == GOLDEN_RANK, f"golden baseline rank {rank} != {GOLDEN_RANK}")


def geometric(low: float, high: float, count: int, index: int) -> float:
    return low * (high / low) ** (index / max(1, count - 1))


def jittered(gates: float, rng: random.Random) -> int:
    return round(gates * (1.0 + rng.uniform(-GATE_JITTER, GATE_JITTER)))


def closed_loop(
    make_round: Callable[[int], List[Any]],
    run: Callable[[Any], Any],
    check: Callable[[Any, Any, Tally, bool], list],
    seconds: float,
    tally: Tally,
) -> dict:
    """One caller, each op after the last returns, whole rounds while
    another fits in ``seconds``."""
    speed = Speed()
    samples = Samples()
    records: List[list] = []
    for k in rounds(seconds):
        for stratum, item in make_round(k):
            tally.attempted += 1
            try:
                out, wall, factor = speed.time(lambda: run(item))
            except Exception:  # noqa: BLE001 - a failed op is counted, the run goes on
                failed(tally, repr(item))
                continue
            samples.add(wall, factor, stratum)
            record = check(item, out, tally, k == 0)
            if k == 0:
                records.append(record)
    metrics, raw = latency_metrics(samples)
    return {
        "metrics": metrics,
        "raw": raw,
        "samples": {"latency": len(samples), "inputs": len(set(samples.inputs))},
        "digest": digest(records),
    }


def three_ways(
    index: int,
    op: Callable[[], Any],
    speed: Speed,
    tracer: Tracer,
    plain: Samples,
    with_obs: Samples,
    traced: Samples,
) -> Tuple[Any, Dict[str, float]]:
    """Run ``op`` plain, with ``repro.obs`` on, and traced (obs on, layers
    wrapped), alternating the order by ``index``.  Returns the traced
    run's result and the change in the kernel timers it caused."""
    out: Dict[str, Any] = {}

    def run_plain() -> None:
        plain.add(*speed.time(op)[1:])

    def run_obs() -> None:
        obs.enable()
        try:
            with_obs.add(*speed.time(op)[1:])
        finally:
            obs.disable()

    def run_traced() -> None:
        obs.enable()
        before = _kernel_timers()
        install(tracer)
        try:
            def op_traced() -> Any:
                with tracer.operation():
                    return op()

            out["result"], wall, factor = speed.time(op_traced)
        finally:
            tracer.unwrap()
            obs.disable()
        tracer.factors[tracer.ops - 1] = factor
        traced.add(wall, factor)
        after = _kernel_timers()
        out["kernel"] = {name: (after[name] - before[name]) * factor for name in after}

    steps = [run_plain, run_obs, run_traced]
    for step in steps if index % 2 == 0 else steps[::-1]:
        step()
    return out["result"], out["kernel"]


def _kernel_timers() -> Dict[str, float]:
    timers = obs.snapshot()["timers"]
    return {
        name: timers.get(f"solver.dp.kernel.{name}", {}).get("total_s", 0.0)
        for name in ("transition_s", "rank_scan_s")
    }


def overheads(plain: Samples, with_obs: Samples, traced: Samples) -> Dict[str, float]:
    base = statistics.median(plain.scaled)
    return {
        "obs.overhead_frac": statistics.median(with_obs.scaled) / base - 1.0,
        "trace.overhead_frac": statistics.median(traced.scaled) / base - 1.0,
    }


def layer_metrics(tracer: Tracer, ops: Sequence[int]) -> Dict[str, float]:
    """Mean self time per op of every layer the ops entered."""
    out: Dict[str, float] = {}
    for metric, name in LAYER_TIMES.items():
        if tracer.count(name, ops):
            out[metric] = tracer.self_time([name], ops) / len(ops)
    if tracer.count("assign.pack_suffix", ops):
        out["assign.pack_suffix_calls"] = tracer.count("assign.pack_suffix", ops)
    return out


# ---------------------------------------------------------------------------
# solve: one compute_rank call per op, no PrecomputeCache (as `ia-rank rank`)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SolveInput:
    node: str
    gates: int
    bunch: int
    units: int
    witness: bool
    column: str
    value: float

    def problem(self) -> api.RankProblem:
        return api.baseline_problem(self.node, self.gates, **{COLUMNS[self.column][0]: self.value})


def solve_strata(smoke: bool) -> List[SolveInput]:
    """The strata: gate counts from 0.5M to 2M, cycling through the
    (bunch, cells, witness) classes, the three nodes and the four Table 4
    columns, each stratum with one value of its column."""
    strata = []
    for i in range(SOLVE_STRATA):
        bunch, units, witness = SOLVE_CLASSES[i % len(SOLVE_CLASSES)]
        column = "KMCR"[(i + i // len(SOLVE_CLASSES)) % 4]
        values = COLUMNS[column][2]
        strata.append(SolveInput(
            node=NODES[i % len(NODES)],
            gates=round(geometric(*SOLVE_GATES, SOLVE_STRATA, i)),
            bunch=bunch, units=units, witness=witness,
            column=column, value=values[(7 * i) % len(values)],
        ))
    return strata[:SOLVE_SMOKE_STRATA] if smoke else strata


def solve_round(seed: int, k: int, smoke: bool) -> List[Tuple[int, SolveInput]]:
    """Round ``k``: (stratum, input) pairs in a seeded order."""
    rng = random.Random(f"solve:{seed}:{k}")
    items = [(i, replace(s, gates=jittered(s.gates, rng))) for i, s in enumerate(solve_strata(smoke))]
    rng.shuffle(items)
    return items


def solve_op(item: SolveInput) -> api.RankResult:
    return api.compute_rank(
        item.problem(), bunch_size=item.bunch, repeater_units=item.units, collect_witness=item.witness
    )


def check_solve(item: SolveInput, result: api.RankResult, tally: Tally, first: bool) -> list:
    """Check one result's invariants; returns its digest record."""
    total = result.total_wires
    ok = 0 < result.rank <= total and result.normalized == result.rank / total
    segments = result.witness
    if item.witness:
        ok = ok and segments is not None and segments[0].start_group == 0
        ok = ok and all(a.end_group == b.start_group for a, b in zip(segments, segments[1:]))
        ok = ok and sum(s.repeater_cells for s in segments) <= item.units
    else:
        ok = ok and segments is None
    tally.check(ok, f"solve {item}: inconsistent result (rank {result.rank})")
    witness = None if segments is None else [
        [s.pair, s.start_group, s.end_group, s.repeater_cells, s.repeaters]
        for s in segments
    ]
    return [
        item.node, item.gates, item.bunch, item.units, item.witness,
        item.column, item.value, result.rank, witness,
    ]


def measure_solve(seed: int, seconds: float, smoke: bool, tally: Tally) -> dict:
    return closed_loop(lambda k: solve_round(seed, k, smoke), solve_op, check_solve, seconds, tally)


def trace_solve(seed: int, seconds: float, smoke: bool, tally: Tally, tracer: Tracer) -> dict:
    speed = Speed()
    plain, with_obs, traced = Samples(), Samples(), Samples()
    davis: List[float] = []
    witness_extra: List[float] = []
    kernel: Dict[str, List[float]] = {"transition_s": [], "rank_scan_s": []}
    counts = dict.fromkeys(DP_COUNTS, 0)
    transitions = 0
    first_op = tracer.ops
    for k in rounds(seconds):
        for _, item in solve_round(seed, k, smoke):
            index = tracer.ops
            tally.attempted += 1
            try:
                # The Davis WLD as baseline_problem() builds it, bypassing
                # the LRU it consults.
                _, wall, factor = speed.time(lambda: davis_wld(
                    DavisParameters(gate_count=item.gates, rent_exponent=RENT_EXPONENT)
                ))
                davis.append(wall * factor)
                item.problem()  # fills that LRU, so the three runs below pay alike
                result, spent = three_ways(
                    index, lambda: solve_op(item), speed, tracer, plain, with_obs, traced
                )
                if item.witness:
                    witness_extra.append(_witness_cost(index, item, speed))
            except Exception:  # noqa: BLE001 - a failed op is counted, the run goes on
                failed(tally, f"solve {item}")
                continue
            check_solve(item, result, tally, k == 0)
            for name, value in spent.items():
                kernel[name].append(value)
            transitions += result.stats.transitions
            if k == 0:
                for name in DP_COUNTS:
                    counts[name] += getattr(result.stats, name)
    ops = list(range(first_op, tracer.ops))
    tables = golden_problem().tables(bunch_size=10_000)[0]
    _, wall, factor = speed.time(lambda: solve_rank_dp(tables, repeater_units=512))
    metrics = {
        "wld.davis_s": statistics.fmean(davis),
        "core.dp.solve_cold_s": tracer.durations("core.dp.solve")[0] * tracer.factors[-1],
        "core.dp.solve_golden_warm_s": wall * factor,
        "core.dp.transition_s": statistics.fmean(kernel["transition_s"]),
        "core.dp.rank_scan_s": statistics.fmean(kernel["rank_scan_s"]),
        "core.dp.transitions_per_s": transitions / sum(kernel["transition_s"]),
        "core.dp.witness_extra_s": statistics.fmean(witness_extra),
        "trace.coverage_frac": tracer.self_time(SOLVE_PATH, ops) / sum(plain.scaled),
        **{f"core.dp.{name}": value for name, value in counts.items()},
        **layer_metrics(tracer, ops),
        **overheads(plain, with_obs, traced),
    }
    return {"metrics": metrics, "samples": {"ops": len(plain)}}


def _witness_cost(index: int, item: SolveInput, speed: Speed) -> float:
    """Extra solve time of the witness: the same tables solved with and
    without it, in alternating order."""
    tables = item.problem().tables(bunch_size=item.bunch)[0]
    times = {}
    for witness in (True, False) if index % 2 else (False, True):
        _, wall, factor = speed.time(lambda: solve_rank_dp(
            tables, repeater_units=item.units, collect_witness=witness
        ))
        times[witness] = wall * factor
    return times[True] - times[False]


# ---------------------------------------------------------------------------
# table4_sweep: the four Table 4 columns through run_batch, as
# `ia-rank sweep <knob> --jobs 0` makes them
# ---------------------------------------------------------------------------


def sweep_pass(
    order: Sequence[str],
    jobs: int,
    smoke: bool,
    tally: Tally,
    speed: Speed,
    tracer: Optional[Tracer] = None,
    after_column: Optional[Callable[[], None]] = None,
) -> dict:
    """One pass over the columns in ``order``; a fresh PrecomputeCache each.
    Batch times are per column; point times are the evaluation times the
    runner journals."""
    baseline = golden_problem()
    records: List[list] = []
    batches = Samples()
    points = Samples()
    caches: List[api.PrecomputeCache] = []
    for column in order:
        _, sweep_fn, values, baseline_value = COLUMNS[column]
        values = values[:2] if smoke else values
        cache = api.PrecomputeCache()
        caches.append(cache)
        tally.attempted += len(values)

        def batch() -> Any:
            return sweep_fn(
                baseline, values=values, bunch_size=SWEEP_BUNCH, repeater_units=SWEEP_UNITS,
                jobs=jobs, pool_mode="auto", cache=cache, policy=RetryPolicy(max_attempts=1),
            )

        try:
            if tracer is None:
                sweep, wall, factor = speed.time(batch)
            else:
                first_op = tracer.ops
                with tracer.span(f"runner.batch.{column}"):
                    sweep, wall, factor = speed.time(batch)
                tracer.factors.update(dict.fromkeys(range(first_op, tracer.ops), factor))
        except Exception:  # noqa: BLE001 - a failed batch is counted, the run goes on
            failed(tally, f"sweep {column}")
            tally.failed += len(values) - 1
            continue
        batches.add(wall, factor, column)
        if after_column is not None:
            after_column()
        for failure in sweep.failures:
            tally.fail(f"sweep {column} point {failure.value}: {failure}")
        for record in sweep.journal.records:
            points.add(sum(a.wall_time_s for a in record.attempts), factor, (column, record.key))
        for point in sweep.points:
            records.append([column, point.value, point.result.rank])
            if point.value == baseline_value:
                tally.check(
                    point.result.rank == GOLDEN_RANK,
                    f"sweep {column}={point.value}: rank {point.result.rank} != {GOLDEN_RANK}",
                )
    return {
        "wall": sum(batches.scaled),
        "batches": batches,
        "points": points,
        "records": sorted(records),
        "caches": caches,
    }


def _column_order(seed: int) -> List[str]:
    order = list(COLUMNS)
    random.Random(f"table4_sweep:{seed}").shuffle(order)
    return order


def measure_table4(seed: int, seconds: float, smoke: bool, tally: Tally) -> dict:
    """Whole passes over the four columns (in a seeded order) while another
    fits in ``seconds``; every pass must give the same ranks.  The pool's
    workers run on every CPU, so the speed is sampled on each."""
    speed = Speed(cpus=usable_cpus())
    order = _column_order(seed)
    passes = []
    for k in rounds(seconds):
        passes.append(sweep_pass(order, 0, smoke, tally, speed))
        tally.check(passes[k]["records"] == passes[0]["records"], f"sweep pass {k} differs from pass 0")
    points, batches = Samples(), Samples()
    for one in passes:
        points.extend(one["points"])
        batches.extend(one["batches"])
    metrics, raw = latency_metrics(points)
    count = sum(len(p["records"]) for p in passes)
    metrics["throughput_per_s"] = count / sum(batches.scaled)
    raw["throughput_per_s"] = count / sum(batches.wall)
    return {
        "metrics": metrics,
        "raw": raw,
        "samples": {"latency": len(points), "inputs": len(set(points.inputs)), "throughput_per_s": len(passes)},
        "digest": digest(passes[0]["records"]),
    }


def trace_table4(seed: int, seconds: float, smoke: bool, tally: Tally, tracer: Tracer) -> dict:
    """Four passes in one order: parallel plain, parallel with repro.obs
    on, sequential (jobs=1) plain, sequential traced."""
    speed = Speed(cpus=usable_cpus())
    order = _column_order(seed)
    parallel = sweep_pass(order, 0, smoke, tally, speed, tracer=tracer)

    # Gauges are last-write-wins, so the registry is drained after every
    # column: counters add up, gauges keep one value per column.
    counters: Dict[str, int] = {}
    gauges: Dict[str, List[float]] = {}

    def drain() -> None:
        snapshot = obs.snapshot()
        obs.reset()
        for name, value in snapshot["counters"].items():
            counters[name] = counters.get(name, 0) + value
        for name, value in snapshot["gauges"].items():
            gauges.setdefault(name, []).append(value)

    obs.reset()
    obs.enable()
    try:
        with_obs = sweep_pass(order, 0, smoke, tally, speed, after_column=drain)
    finally:
        obs.disable()
        obs.reset()

    sequential = sweep_pass(order, 1, smoke, tally, speed)
    tracer.wrap(sweep_mod, "compute_rank", "op", operation=True)
    install(tracer)
    first_op = tracer.ops
    try:
        traced = sweep_pass(order, 1, smoke, tally, speed, tracer=tracer)
    finally:
        tracer.unwrap()
    ops = list(range(first_op, tracer.ops))
    for one in (with_obs, sequential, traced):
        tally.check(one["records"] == parallel["records"], "sweep passes disagree")

    hits = {"coarsened": 0, "tables": 0}
    lookups = {"coarsened": 0, "tables": 0}
    for cache in traced["caches"]:
        stats = cache.stats()
        for stage in hits:
            hits[stage] += stats["hits"][stage]
            lookups[stage] += stats["hits"][stage] + stats["misses"][stage]
    utilization = gauges.get("parallel.worker_utilization", [])
    metrics = {
        "runner.sequential_points_per_s": len(sequential["records"]) / sequential["wall"],
        "runner.parallel_speedup": sequential["wall"] / parallel["wall"],
        **{f"runner.batch_s.{c}": wall for c, wall in zip(parallel["batches"].inputs, parallel["batches"].scaled)},
        "runner.pool_fallbacks": counters.get("parallel.pool_fallbacks", 0),
        "runner.chunks_dispatched": counters.get("parallel.chunks_dispatched", 0),
        "runner.shm_bytes": max(gauges.get("parallel.shm_bytes", []), default=0.0),
        "runner.worker_utilization": statistics.fmean(utilization) if utilization else 0.0,
        "precompute.coarsened_hit_ratio": hits["coarsened"] / lookups["coarsened"],
        "precompute.tables_hit_ratio": hits["tables"] / lookups["tables"],
        "obs.overhead_frac": with_obs["wall"] / parallel["wall"] - 1.0,
        "trace.overhead_frac": traced["wall"] / sequential["wall"] - 1.0,
        **layer_metrics(tracer, ops),
    }
    return {"metrics": metrics, "samples": {"ops": len(ops)}}


# ---------------------------------------------------------------------------
# budget_curve: one repro.api.budget_curve call per op
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CurveInput:
    gates: int
    fraction: float
    clock: float

    def problem(self) -> api.RankProblem:
        return api.baseline_problem(
            "130nm", self.gates, clock_frequency=self.clock, repeater_fraction=self.fraction
        )


def curve_strata(smoke: bool) -> List[CurveInput]:
    """Gate counts over ``CURVE_GATES``, cycling through the Table 4
    repeater fractions (which set most of a curve's cost) and clocks."""
    fractions, clocks = COLUMNS["R"][2], COLUMNS["C"][2]
    strata = [
        CurveInput(
            gates=round(geometric(*CURVE_GATES, CURVE_STRATA, i)),
            fraction=fractions[i % len(fractions)],
            clock=clocks[(5 * i) % len(clocks)],
        )
        for i in range(CURVE_STRATA)
    ]
    return strata[:CURVE_SMOKE_STRATA] if smoke else strata


def curve_round(seed: int, k: int, smoke: bool) -> List[Tuple[int, CurveInput]]:
    """Round ``k``: (stratum, input) pairs in a seeded order."""
    rng = random.Random(f"budget_curve:{seed}:{k}")
    items = [(i, replace(s, gates=jittered(s.gates, rng))) for i, s in enumerate(curve_strata(smoke))]
    rng.shuffle(items)
    return items


def curve_op(item: CurveInput):
    return api.budget_curve(item.problem(), bunch_size=CURVE_BUNCH, repeater_units=CURVE_UNITS)[0]


def check_curve(item: CurveInput, curve, tally: Tally, first: bool) -> list:
    ranks = curve.ranks
    problem = item.problem()
    ok = curve.fits and len(ranks) == CURVE_UNITS + 1
    ok = ok and all(a <= b for a, b in zip(ranks, ranks[1:]))
    ok = ok and 0 < ranks[-1] <= problem.wld.total_wires
    tally.check(ok, f"budget_curve {item}: inconsistent curve")
    if first:
        # The curve at full budget is the rank compute_rank finds.
        rank = api.compute_rank(problem, bunch_size=CURVE_BUNCH, repeater_units=CURVE_UNITS).rank
        tally.check(ranks[-1] == rank, f"budget_curve {item}: full-budget rank {ranks[-1]} != {rank}")
    return [item.gates, item.fraction, item.clock, list(ranks)]


def measure_curve(seed: int, seconds: float, smoke: bool, tally: Tally) -> dict:
    return closed_loop(lambda k: curve_round(seed, k, smoke), curve_op, check_curve, seconds, tally)


def trace_curve(seed: int, seconds: float, smoke: bool, tally: Tally, tracer: Tracer) -> dict:
    speed = Speed()
    plain, with_obs, traced = Samples(), Samples(), Samples()
    counts = {"transitions": 0, "pack_checks": 0}
    first_op = tracer.ops
    for k in rounds(seconds):
        for _, item in curve_round(seed, k, smoke):
            index = tracer.ops
            tally.attempted += 1
            try:
                curve, _ = three_ways(
                    index, lambda: curve_op(item), speed, tracer, plain, with_obs, traced
                )
            except Exception:  # noqa: BLE001 - a failed op is counted, the run goes on
                failed(tally, f"budget_curve {item}")
                continue
            check_curve(item, curve, tally, False)
            if k == 0:
                for name in counts:
                    counts[name] += getattr(curve.stats, name)
    ops = list(range(first_op, tracer.ops))
    metrics = {
        **{f"core.curve.{name}": value for name, value in counts.items()},
        **layer_metrics(tracer, ops),
        **overheads(plain, with_obs, traced),
    }
    return {"metrics": metrics, "samples": {"ops": len(plain)}}


MEASURE = {"solve": measure_solve, "table4_sweep": measure_table4, "budget_curve": measure_curve}
TRACE = {"solve": trace_solve, "table4_sweep": trace_table4, "budget_curve": trace_curve}
