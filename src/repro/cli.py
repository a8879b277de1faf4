"""Command-line interface.

Installed as ``ia-rank`` (see pyproject) and runnable as
``python -m repro.cli``.  Subcommands:

* ``rank`` — compute the rank of one configuration,
* ``sweep`` — regenerate one Table 4 column (K / M / C / R),
* ``wld`` — generate a Davis WLD and write it to CSV,
* ``nodes`` — baseline comparison across the built-in nodes,
* ``optimize`` — architecture search (Section 6),
* ``curve`` — the rank(budget) curve in one DP pass,
* ``report`` — per-pair assignment usage + timing slack,
* ``corners`` — sign-off rank across process/operating corners,
* ``stats`` — render the metrics section of a trace file.

Any design-taking command accepts ``--node-file my_node.json`` to run
on a custom JSON-described process.  Design-taking commands turn their
flags into a :mod:`repro.schema` request and solve it as the service
does, so the wire schema's caps and error messages apply to them.
``--solver`` is offered by ``rank``, ``sweep``, ``optimize`` and
``corners``; ``curve`` and ``report`` always run the DP.

Flag names mirror the :mod:`repro.api` facade keywords:
``--bunch-size``, ``--repeater-units``, ``--clock-frequency``,
``--miller-factor``; see docs/usage.md for the full mapping.

Compute commands (``rank``, ``sweep``, ``optimize``, ``corners``)
accept ``--trace FILE``: observability (:mod:`repro.obs`) is switched
on for the run and a Chrome trace-event JSON — spans plus the full
metrics snapshot — is written to FILE on exit (load it in Perfetto or
``chrome://tracing``, or render the counters with ``ia-rank stats``).

Multi-point commands (``sweep``, ``corners``, ``optimize``) run through
the fault-tolerant harness (:mod:`repro.runner`) and accept
``--keep-going`` (isolate failing points instead of aborting),
``--checkpoint PATH`` (journal every completed point atomically),
``--resume PATH`` (recompute only missing points), ``--max-retries N``
and ``--timeout-s S`` (per-attempt retry budget and wall-clock
deadline, with deterministic bunch-size degradation on retries),
``--jobs N`` (evaluate points on a warm pool of N worker processes,
0 = one per CPU; output is identical to a sequential run),
``--pool-mode auto|warm|sequential`` (whether to force or disable the
pool — 'auto' falls back to sequential whenever a pool cannot beat
it) and ``--fault-schedule SPEC`` (deterministic chaos testing: arm a
:mod:`repro.faultkit` schedule, inline JSON or a file path; also
settable via the ``REPRO_FAULT_SCHEDULE`` environment variable).

Exit codes (stable contract, asserted by ``tests/test_cli.py``):

* ``0`` (:data:`EXIT_OK`) — clean run, every requested point computed;
* ``1`` (:data:`EXIT_FAILURE`) — total failure: a library error, or a
  batch run in which *no* point produced a result;
* ``2`` (:data:`EXIT_USAGE`) — command-line usage error (argparse);
* ``3`` (:data:`EXIT_PARTIAL`) — partial failure: a ``--keep-going``
  batch completed some points but recorded failures in the run
  journal;
* ``130`` (:data:`EXIT_INTERRUPTED`) — interrupted by SIGINT
  (Ctrl-C); pool workers are reaped first and any ``--checkpoint``
  file holds every completed point, so the run is resumable;
* ``143`` — terminated by SIGTERM, with the same reap-and-checkpoint
  guarantee (the conventional ``128 + signum`` code, raised as
  ``SystemExit`` by the runner's signal handler).

Examples::

    ia-rank rank --node 130nm --gates 1000000 --bunch-size 10000
    ia-rank sweep K --gates 1000000
    ia-rank sweep K --keep-going --checkpoint k.ckpt.json
    ia-rank sweep K --resume k.ckpt.json
    ia-rank wld --gates 1000000 --out wld.csv
    ia-rank nodes
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields
from typing import Callable, List, Optional, Tuple, Type, TypeVar

from .analysis.compare import compare_nodes
from .analysis.sweep import (
    sweep_clock,
    sweep_miller,
    sweep_permittivity,
    sweep_repeater_fraction,
)
from .api import (
    SOLVERS,
    OptimizeRequest,
    RankProblem,
    RankRequest,
    compute_rank,
    load_node,
    optimize_rank,
    parse_fault_schedule,
)
from .errors import ReproError
from .reporting.tables import format_node_table, format_sweep_table, sweep_to_csv
from .reporting.text import format_run_journal, format_table
from .runner import RetryPolicy
from .units import to_mm2, to_ps
from .wld.davis import DavisParameters, davis_wld
from .wld.io import save_wld_csv

#: Clean run: every requested point computed.
EXIT_OK = 0
#: Total failure: library error, or a batch with zero successful points.
EXIT_FAILURE = 1
#: Usage error (argparse's convention).
EXIT_USAGE = 2
#: Partial failure: a --keep-going batch finished with journaled failures.
EXIT_PARTIAL = 3
#: Interrupted by SIGINT after reaping workers; checkpoint resumable.
EXIT_INTERRUPTED = 130

_SWEEPS = {
    "K": sweep_permittivity,
    "M": sweep_miller,
    "C": sweep_clock,
    "R": sweep_repeater_fraction,
}


def _at_least(minimum: float) -> Callable[[str], float]:
    """argparse type: a number >= ``minimum``, parsed as ``minimum``'s
    type (``_at_least(1)`` takes integers, ``_at_least(0.0)`` floats)."""
    kind = type(minimum)
    noun = "an integer" if kind is int else "a number"

    def parse(text: str) -> float:
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected {noun}, got {text!r}"
            ) from None
        if not value >= minimum:  # also refuses nan
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        return value

    return parse


def _number_list(text: str) -> Tuple[float, ...]:
    """argparse type: a comma-separated list of numbers, none empty.

    Only the syntax is checked here; the value bounds belong to
    :class:`~repro.schema.OptimizeRequest`.
    """
    try:
        return tuple(float(item) for item in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated numbers, got {text!r}"
        ) from None


def _add_design_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--node", default="130nm", help="technology node name")
    parser.add_argument(
        "--node-file",
        default="",
        help="JSON technology-node description (overrides --node)",
    )
    parser.add_argument(
        "--gates", type=int, default=1_000_000, help="design size in gates"
    )
    parser.add_argument(
        "--clock-frequency", type=float, default=500e6, help="target clock in Hz"
    )
    parser.add_argument(
        "--repeater-fraction",
        type=float,
        default=0.4,
        help="max repeater area as a fraction of die area",
    )
    parser.add_argument(
        "--permittivity", type=float, default=3.9, help="ILD relative permittivity"
    )
    parser.add_argument(
        "--miller-factor", type=float, default=2.0, help="Miller coupling factor"
    )
    parser.add_argument(
        "--bunch-size",
        type=int,
        default=10_000,
        help="bunch size (0 disables bunching)",
    )
    parser.add_argument(
        "--repeater-units", type=int, default=512, help="repeater budget cells"
    )


def _add_solver_arg(parser: argparse.ArgumentParser) -> None:
    """``--solver``, for the commands that can solve greedily."""
    parser.add_argument(
        "--solver",
        default="dp",
        choices=SOLVERS,
        help="rank solver",
    )


def _add_obs_args(parser: argparse.ArgumentParser) -> None:
    """Observability flags for compute commands."""
    group = parser.add_argument_group("observability")
    group.add_argument(
        "--trace",
        default="",
        metavar="FILE",
        help="enable metrics + tracing and write a Chrome trace-event "
        "JSON (Perfetto-loadable) with the metrics snapshot to FILE",
    )


def _add_runner_args(parser: argparse.ArgumentParser) -> None:
    """Fault-tolerance flags for multi-point commands."""
    group = parser.add_argument_group("fault tolerance")
    group.add_argument(
        "--keep-going",
        action="store_true",
        help="isolate failing points (partial result + exit code 3) "
        "instead of aborting on the first failure",
    )
    group.add_argument(
        "--checkpoint",
        default="",
        metavar="PATH",
        help="journal completed points to PATH (atomic rewrite after "
        "every point) so an interrupted run can --resume",
    )
    group.add_argument(
        "--resume",
        default="",
        metavar="PATH",
        help="resume from a checkpoint file: recompute only missing "
        "points, keep journaling to the same PATH",
    )
    group.add_argument(
        "--max-retries",
        type=_at_least(0),
        default=0,
        metavar="N",
        help="retry a failing point up to N extra times, coarsening "
        "the bunch size 2x per retry (recorded in the run journal)",
    )
    group.add_argument(
        "--timeout-s",
        type=_at_least(0.0),
        default=0.0,
        metavar="S",
        help="per-attempt wall-clock budget in seconds, enforced "
        "cooperatively inside the DP solver (0 disables)",
    )
    group.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="evaluate points on N warm pool workers (0 = one per CPU); "
        "results and checkpoints are identical to a sequential run",
    )
    group.add_argument(
        "--pool-mode",
        default="auto",
        choices=("auto", "warm", "sequential"),
        help="worker-pool policy: 'auto' (default) falls back to "
        "sequential when a pool cannot beat it (single usable CPU, "
        "tiny batch), 'warm' always pools when --jobs > 1, "
        "'sequential' never pools",
    )
    group.add_argument(
        "--fault-schedule",
        default="",
        metavar="SPEC",
        help="deterministic chaos testing: arm a repro.faultkit "
        "schedule (inline JSON, or a path to a JSON schedule file) "
        "for this run; also settable via REPRO_FAULT_SCHEDULE",
    )


def _runner_kwargs(args: argparse.Namespace) -> dict:
    """Translate fault-tolerance flags into harness keywords."""
    checkpoint = args.resume or args.checkpoint or None
    kwargs = dict(
        policy=RetryPolicy(
            max_attempts=1 + args.max_retries,
            timeout_s=args.timeout_s if args.timeout_s > 0 else None,
        ),
        keep_going=args.keep_going,
        checkpoint=checkpoint,
        resume=bool(args.resume),
        jobs=args.jobs,
        pool_mode=args.pool_mode,
    )
    if args.fault_schedule:
        kwargs["fault_schedule"] = parse_fault_schedule(args.fault_schedule)
    return kwargs


def _batch_exit_code(journal, n_results: int, n_failures: int) -> int:
    """Exit code + journal print for a finished batch command."""
    if n_failures:
        print(file=sys.stderr)
        print(format_run_journal(journal), file=sys.stderr)
        return EXIT_PARTIAL if n_results else EXIT_FAILURE
    return EXIT_OK


_RequestT = TypeVar("_RequestT", RankRequest, OptimizeRequest)


def _request(args: argparse.Namespace, kind: Type[_RequestT]) -> _RequestT:
    """The typed request of the design flags.

    Each flag's destination is the request field of the same name, so
    a command line meets the caps and messages of the HTTP service and
    solves as the equivalent request body does.
    """
    values = {
        spec.name: getattr(args, spec.name)
        for spec in fields(kind)
        if hasattr(args, spec.name)
    }
    values["bunch_size"] = args.bunch_size or None
    return kind(**values)


def _problem(args: argparse.Namespace, request: _RequestT) -> RankProblem:
    """The request's problem, on the ``--node-file`` node when given."""
    return request.problem(load_node(args.node_file) if args.node_file else None)


def _cmd_rank(args: argparse.Namespace) -> int:
    request = _request(args, RankRequest)
    print(compute_rank(_problem(args, request), **request.solve_kwargs()).summary())
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    request = _request(args, RankRequest)
    sweep = _SWEEPS[args.knob](
        _problem(args, request), **request.solve_kwargs(), **_runner_kwargs(args)
    )
    if args.csv:
        print(sweep_to_csv(sweep), end="")
    else:
        print(format_sweep_table(sweep))
    return _batch_exit_code(sweep.journal, len(sweep.points), len(sweep.failures))


def _cmd_wld(args: argparse.Namespace) -> int:
    wld = davis_wld(
        DavisParameters(gate_count=args.gates, rent_exponent=args.rent)
    )
    if args.out:
        save_wld_csv(wld, args.out)
        print(f"wrote {wld.describe()} to {args.out}")
    else:
        print(wld.describe())
    return 0


def _cmd_nodes(args: argparse.Namespace) -> int:
    baselines = compare_nodes(
        bunch_size=args.bunch_size or None, repeater_units=args.repeater_units
    )
    print(format_node_table(baselines))
    return 0


def _cmd_optimize(args: argparse.Namespace) -> int:
    request = _request(args, OptimizeRequest)
    problem = _problem(args, request)
    outcome = optimize_rank(
        problem,
        request.design_space(problem.die.node),
        **request.solve_kwargs(),
        **_runner_kwargs(args),
    )
    rows = [
        (c.label(), c.metal_layers, c.result.rank, f"{c.normalized:.6f}")
        for c in outcome.pareto
    ]
    print(
        format_table(
            ("stack", "layers", "rank", "normalized"),
            rows,
            title="Rank-vs-layers Pareto frontier",
        )
    )
    print()
    print(f"best: {outcome.best.label()} -> {outcome.best.result.summary()}")
    return _batch_exit_code(
        outcome.journal, len(outcome.evaluated), len(outcome.failures)
    )


def _cmd_corners(args: argparse.Namespace) -> int:
    from .analysis.corners import STANDARD_CORNERS, rank_across_corners

    request = _request(args, RankRequest)
    report = rank_across_corners(
        _problem(args, request),
        STANDARD_CORNERS,
        **request.solve_kwargs(),
        **_runner_kwargs(args),
    )
    rows = [
        (corner.name, result.rank, f"{result.normalized:.6f}",
         "yes" if result.fits else "NO")
        for corner, result in report.results
    ]
    print(
        format_table(
            ("corner", "rank", "normalized", "fits"),
            rows,
            title="Rank across corners",
        )
    )
    if report.results:
        worst_corner, worst = report.worst
        print()
        print(
            f"sign-off rank: {worst.rank:,} ({worst.normalized:.6f}) at corner "
            f"{worst_corner.name!r}; guardband vs nominal: "
            f"{report.guardband:.6f}"
        )
    else:
        print()
        print("no corner produced a result; no sign-off number")
    return _batch_exit_code(
        report.journal, len(report.results), len(report.failures)
    )


def _cmd_report(args: argparse.Namespace) -> int:
    from .analysis.slack import slack_profile, summarize_slack
    from .reporting.witness import format_assignment_report

    request = _request(args, RankRequest)
    problem = _problem(args, request)
    result = compute_rank(problem, collect_witness=True, **request.solve_kwargs())
    tables, _ = problem.tables(bunch_size=request.bunch_size)
    print(result.summary())
    print()
    print(format_assignment_report(tables, result))
    if result.witness:
        summary = summarize_slack(slack_profile(tables, result))
        print()
        print(
            f"timing: min slack {to_ps(summary.min_slack):.2f} ps at "
            f"length {summary.critical_length:g} pitches; boundary group "
            f"relative slack {summary.boundary_relative_slack * 100:.1f}% "
            f"({'delay-wall' if summary.boundary_relative_slack < 0.05 else 'budget'}-bound)"
        )
    return 0


def _cmd_curve(args: argparse.Namespace) -> int:
    from .api import budget_curve

    request = _request(args, RankRequest)
    curve, tables = budget_curve(
        _problem(args, request),
        bunch_size=request.bunch_size,
        repeater_units=request.repeater_units,
    )
    total = tables.total_wires
    step = max(1, curve.num_units // args.points) if curve.num_units else 1
    rows = []
    for cells in range(0, curve.num_units + 1, step):
        rows.append(
            (
                cells,
                f"{to_mm2(cells * curve.cell_area):.4f}",
                curve.ranks[cells],
                f"{curve.ranks[cells] / total:.6f}",
            )
        )
    print(
        format_table(
            ("budget cells", "area [mm^2]", "rank", "normalized"),
            rows,
            title="Budget-rank curve (fixed die)",
        )
    )
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    import json

    from .obs.render import format_metrics
    from .obs.trace import validate_trace

    try:
        with open(args.file) as handle:
            payload = json.load(handle)
    except OSError as exc:
        raise ReproError(f"{args.file}: cannot read: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ReproError(f"{args.file}: invalid JSON: {exc}") from exc
    if not isinstance(payload, dict) or "metrics" not in payload:
        raise ReproError(
            f"{args.file}: no 'metrics' section; expected a --trace file"
        )
    if "traceEvents" in payload:
        problems = validate_trace(payload)
        if problems:
            for problem in problems:
                print(f"warning: {problem}", file=sys.stderr)
        print(
            f"{args.file}: {len(payload['traceEvents'])} trace events"
        )
        print()
    print(format_metrics(payload["metrics"]))
    return EXIT_OK


def _cmd_serve(args: argparse.Namespace) -> int:
    # Deferred: the service stack (asyncio server, executor pool) is
    # only paid for by the one subcommand that runs it.
    from .service import ServiceConfig, serve

    config = ServiceConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        queue_depth=args.queue_depth,
        cache_entries=args.cache_entries,
        precompute_entries=args.precompute_entries,
        default_deadline_s=args.default_deadline_s or None,
        warm_on_start=not args.no_warm,
    )
    return serve(config)


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="ia-rank",
        description=(
            "Interconnect-architecture rank metric "
            "(reproduction of Dasgupta-Kahng-Muddu, DATE 2003)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_rank = sub.add_parser("rank", help="compute the rank of one configuration")
    _add_design_args(p_rank)
    _add_solver_arg(p_rank)
    _add_obs_args(p_rank)
    p_rank.set_defaults(func=_cmd_rank)

    p_sweep = sub.add_parser("sweep", help="regenerate one Table 4 column")
    p_sweep.add_argument("knob", choices=sorted(_SWEEPS), help="knob to sweep")
    _add_design_args(p_sweep)
    _add_solver_arg(p_sweep)
    _add_runner_args(p_sweep)
    _add_obs_args(p_sweep)
    p_sweep.add_argument("--csv", action="store_true", help="emit CSV instead")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_wld = sub.add_parser("wld", help="generate a Davis WLD")
    p_wld.add_argument("--gates", type=int, default=1_000_000)
    p_wld.add_argument("--rent", type=float, default=0.6, help="Rent exponent")
    p_wld.add_argument("--out", default="", help="CSV output path")
    p_wld.set_defaults(func=_cmd_wld)

    p_nodes = sub.add_parser("nodes", help="baseline comparison across nodes")
    p_nodes.add_argument("--bunch-size", type=int, default=10_000)
    p_nodes.add_argument("--repeater-units", type=int, default=512)
    p_nodes.set_defaults(func=_cmd_nodes)

    p_opt = sub.add_parser(
        "optimize", help="search architectures for maximal rank (Section 6)"
    )
    _add_design_args(p_opt)
    _add_solver_arg(p_opt)
    p_opt.add_argument(
        "--k-classes",
        dest="permittivities",
        type=_number_list,
        default="3.9,3.6,2.8",
        help="comma-separated candidate ILD permittivities",
    )
    p_opt.add_argument(
        "--m-classes",
        dest="miller_factors",
        type=_number_list,
        default="2.0,1.0",
        help="comma-separated candidate Miller factors (shielding levels)",
    )
    p_opt.add_argument("--max-layers", dest="max_metal_layers", type=int, default=12)
    p_opt.add_argument("--exhaustive-limit", type=int, default=128)
    _add_runner_args(p_opt)
    _add_obs_args(p_opt)
    p_opt.set_defaults(func=_cmd_optimize)

    p_curve = sub.add_parser(
        "curve", help="rank vs repeater budget, one DP pass (fixed die)"
    )
    _add_design_args(p_curve)
    p_curve.add_argument(
        "--points",
        type=_at_least(1),
        default=16,
        help="rows to print along the curve",
    )
    p_curve.set_defaults(func=_cmd_curve)

    p_report = sub.add_parser(
        "report",
        help="full assignment report: per-pair usage + timing slack",
    )
    _add_design_args(p_report)
    p_report.set_defaults(func=_cmd_report)

    p_corners = sub.add_parser(
        "corners", help="rank across process/operating corners"
    )
    _add_design_args(p_corners)
    _add_solver_arg(p_corners)
    _add_runner_args(p_corners)
    _add_obs_args(p_corners)
    p_corners.set_defaults(func=_cmd_corners)

    p_serve = sub.add_parser(
        "serve", help="run the HTTP/JSON rank service (rank-as-a-service)"
    )
    p_serve.add_argument("--host", default="127.0.0.1", help="bind address")
    p_serve.add_argument(
        "--port", type=int, default=8421, help="TCP port (0 = ephemeral)"
    )
    p_serve.add_argument(
        "--workers",
        type=int,
        default=1,
        help="solve threads; they share one in-process precompute cache",
    )
    p_serve.add_argument(
        "--queue-depth",
        type=int,
        default=16,
        metavar="N",
        help="queued solves beyond the busy workers before requests "
        "are rejected with 429 + Retry-After",
    )
    p_serve.add_argument(
        "--cache-entries",
        type=int,
        default=256,
        metavar="N",
        help="memoized responses kept (LRU, keyed by request fingerprint)",
    )
    p_serve.add_argument(
        "--precompute-entries",
        type=int,
        default=8,
        metavar="N",
        help="entries of the precompute cache the solve threads share",
    )
    p_serve.add_argument(
        "--default-deadline-s",
        type=float,
        default=30.0,
        metavar="S",
        help="deadline for requests that do not set deadline_s "
        "(0 disables; per-request values are capped at 300s)",
    )
    p_serve.add_argument(
        "--no-warm",
        action="store_true",
        help="skip pre-solving the baseline request at startup",
    )
    p_serve.set_defaults(func=_cmd_serve)

    p_stats = sub.add_parser(
        "stats",
        help="render the metrics section of a --trace file",
    )
    p_stats.add_argument("file", help="trace JSON (from --trace)")
    p_stats.set_defaults(func=_cmd_stats)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code.

    See the module docstring for the exit-code contract: 0 clean,
    1 total failure, 2 usage error, 3 partial failure.
    """
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 for --help; surface
        # the code as a return value so embedders never see SystemExit.
        return int(exc.code or 0)
    trace_path = getattr(args, "trace", "")
    if trace_path:
        from . import obs

        obs.enable(trace_events=True)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    except KeyboardInterrupt:
        # The parallel backend's signal handler reaps pool workers
        # before this propagates, and run_batch's finally has already
        # committed the checkpoint — the run is resumable.
        print("interrupted (checkpoint, if any, is resumable)", file=sys.stderr)
        return EXIT_INTERRUPTED
    except BrokenPipeError:
        # Downstream consumer (e.g. ``| head``) closed stdout early;
        # that is a normal way to stop reading, not a failure.  Detach
        # stdout so the interpreter's shutdown flush cannot raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_OK
    finally:
        if trace_path:
            from . import obs
            from .obs.trace import write_trace

            # Written even when the command failed: a partial trace is
            # exactly what you want when debugging a failed run.
            count = write_trace(trace_path)
            obs.disable()
            print(
                f"trace: wrote {count} events to {trace_path} "
                "(load in Perfetto / chrome://tracing, or run "
                f"'ia-rank stats {trace_path}')",
                file=sys.stderr,
            )


if __name__ == "__main__":
    sys.exit(main())
