"""Tests for the ia-rank command-line interface."""

import pytest

from repro.cli import build_parser, main

#: ``ia-rank report --gates 20000 --bunch-size 2000 --repeater-units 64``.
REPORT_20K_GATES = """\
rank 25081 / 58858 wires (normalized 0.426127, +/-2000; fits; solver=dp)

Assignment for rank 25,081
layer-pair     delay-met wires  other wires  repeaters  area used
-------------  ---------------  -----------  ---------  ---------
global-1                     0            0          0       0.0%
semi_global-1                0            0          0       0.0%
semi_global-2                0            0          0       0.0%
local-1                 25,081       33,777          0      92.7%

timing: min slack 24.63 ps at length 2 pitches; rank stopped by: repeater budget or routing capacity
"""


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_rank_defaults(self):
        args = build_parser().parse_args(["rank"])
        assert args.node == "130nm"
        assert args.gates == 1_000_000
        assert args.solver == "dp"

    def test_flag_defaults_are_the_request_defaults(self):
        """Every design and optimize flag defaults to its request
        field's default, so the CLI and a bare wire request solve the
        same baseline."""
        from repro.schema import OptimizeRequest, RankRequest

        parser = build_parser()
        commands = parser._subparsers._group_actions[0].choices
        checked = set()
        for command, subparser in commands.items():
            request = OptimizeRequest() if command == "optimize" else RankRequest()
            for action in subparser._actions:
                if hasattr(request, action.dest):
                    assert action.default == getattr(request, action.dest), (
                        command, action.dest)
                    checked.add(action.dest)
        assert checked >= {
            "node", "gates", "clock_frequency", "repeater_fraction",
            "permittivity", "miller_factor", "bunch_size", "repeater_units",
            "solver", "permittivities", "miller_factors", "max_metal_layers",
            "exhaustive_limit",
        }

    def test_sweep_knob_choices(self):
        args = build_parser().parse_args(["sweep", "K"])
        assert args.knob == "K"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "Z"])

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.host == "127.0.0.1"
        assert args.port == 8421
        assert args.workers == 1
        assert args.no_warm is False

    def test_serve_executor_mode_choices(self):
        # Solves always run on --workers threads; the mode flag is gone.
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["serve", "--executor-mode", "thread"])
        assert excinfo.value.code == 2


class TestCommands:
    def test_rank_command(self, capsys):
        code = main(
            ["rank", "--gates", "50000", "--bunch-size", "2000",
             "--repeater-units", "64"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "rank" in out
        assert "normalized" in out

    def test_rank_greedy_solver(self, capsys):
        code = main(
            ["rank", "--gates", "50000", "--bunch-size", "2000",
             "--solver", "greedy"]
        )
        assert code == 0
        assert "greedy" in capsys.readouterr().out

    def test_wld_command_summary(self, capsys):
        code = main(["wld", "--gates", "10000"])
        assert code == 0
        assert "wires" in capsys.readouterr().out

    def test_wld_command_csv(self, tmp_path, capsys):
        out_file = tmp_path / "wld.csv"
        code = main(["wld", "--gates", "10000", "--out", str(out_file)])
        assert code == 0
        assert out_file.exists()
        from repro.wld.io import load_wld_csv

        wld = load_wld_csv(out_file)
        assert wld.total_wires > 0

    def test_sweep_command_csv(self, capsys):
        code = main(
            [
                "sweep", "R",
                "--gates", "50000",
                "--bunch-size", "2000",
                "--repeater-units", "64",
                "--csv",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("R,normalized_rank_repro")
        assert len(out.strip().splitlines()) == 6  # header + 5 R points

    def test_sweep_jobs_output_identical(self, capsys):
        argv = ["sweep", "R", "--gates", "50000", "--bunch-size", "2000",
                "--repeater-units", "64", "--csv"]
        outputs = []
        for jobs in ("1", "2"):
            assert main(argv + ["--jobs", jobs]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_jobs_rejects_negative(self, capsys):
        code = main(
            ["sweep", "R", "--gates", "50000", "--bunch-size", "2000",
             "--repeater-units", "64", "--jobs", "-1"]
        )
        assert code == 1
        assert "jobs" in capsys.readouterr().err

    def test_error_reported_as_exit_code(self, capsys):
        code = main(["rank", "--node", "65nm"])
        assert code == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags,field",
        [
            (["--gates", str(10**30)], "gates"),
            (["--gates", "200000", "--repeater-units", str(10**12)],
             "repeater_units"),
        ],
    )
    def test_oversized_rank_names_the_field(self, capsys, flags, field):
        assert main(["rank", *flags]) == 1
        assert capsys.readouterr().err.startswith(f"error: {field}: must be")

    def test_corners_command(self, capsys):
        code = main(
            ["corners", "--gates", "20000", "--bunch-size", "2000",
             "--repeater-units", "64"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Rank across corners" in out
        assert "sign-off rank" in out

    def test_report_command(self, capsys):
        code = main(
            ["report", "--gates", "20000", "--bunch-size", "2000",
             "--repeater-units", "64"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Assignment for rank" in out
        assert "timing:" in out

    def test_report_builds_tables_once(self, monkeypatch, capsys):
        """The report reads the tables the solve ran on, built once, and
        prints what it printed when it built them twice."""
        from repro.core.problem import RankProblem

        builds = []
        tables_on = RankProblem.tables_on

        def counting(problem, coarse):
            builds.append(coarse.num_groups)
            return tables_on(problem, coarse)

        monkeypatch.setattr(RankProblem, "tables_on", counting)
        code = main(
            ["report", "--gates", "20000", "--bunch-size", "2000",
             "--repeater-units", "64"]
        )
        assert code == 0
        assert len(builds) == 1
        assert capsys.readouterr().out == REPORT_20K_GATES

    def test_node_file_option(self, tmp_path, capsys):
        """A saved preset solves as the preset: --node-file and --node
        reach the same problem through the same request."""
        from repro.tech.io import save_node
        from repro.tech.presets import NODE_130NM

        path = tmp_path / "node.json"
        save_node(NODE_130NM, path)
        size = ["--gates", "20000", "--bunch-size", "2000",
                "--repeater-units", "64"]
        summaries = []
        for node in (["--node-file", str(path)], ["--node", "130nm"]):
            assert main(["rank", *node, *size]) == 0
            out = capsys.readouterr().out
            summaries.append(out[: out.index("solver=")])
        assert summaries[0].startswith("rank ")
        assert summaries[0] == summaries[1]

    def test_node_file_errors_cleanly(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        code = main(["rank", "--node-file", str(path)])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_curve_command(self, capsys):
        code = main(
            [
                "curve",
                "--gates", "20000",
                "--bunch-size", "2000",
                "--repeater-units", "32",
                "--points", "4",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Budget-rank curve" in out

    def test_corners_greedy_matches_service(self, capsys):
        """`corners --solver greedy` prints what /v1/corners answers."""
        from repro.schema import CornersRequest
        from repro.service.solve import solve_corner_job

        assert main(["corners", "--gates", "20000", "--bunch-size", "2000",
                     "--repeater-units", "64", "--solver", "greedy"]) == 0
        rows = capsys.readouterr().out.splitlines()[3:8]
        printed = {row.split()[0]: int(row.split()[1]) for row in rows}
        request = CornersRequest(gates=20_000, bunch_size=2000,
                                 repeater_units=64, solver="greedy")
        served = {
            name: solve_corner_job(request.canonicalize(), name, None)["rank"]
            for name in request.selected_corner_names()
        }
        assert printed == served

    SMALL = ["--gates", "20000", "--bunch-size", "2000", "--repeater-units", "64"]

    def _rank(self, capsys, *flags):
        """``(rank, normalized)`` as ``ia-rank rank`` prints them."""
        assert main(["rank", *self.SMALL, *flags]) == 0
        words = capsys.readouterr().out.replace(",", " ").split()
        return words[1], words[words.index("(normalized") + 1]

    def test_sweep_keeps_the_baseline_miller_factor(self, capsys):
        """The K=3.9 row of `sweep K --miller-factor 1.0` is that rank."""
        _, normalized = self._rank(capsys, "--miller-factor", "1.0")
        assert main(["sweep", "K", *self.SMALL, "--miller-factor", "1.0",
                     "--csv"]) == 0
        rows = capsys.readouterr().out.splitlines()
        assert rows[1].split(",")[:2] == ["3.9", normalized]

    def test_corners_nominal_matches_rank(self, capsys):
        """The nominal row of `corners --permittivity 2.8` is its rank."""
        rank, normalized = self._rank(capsys, "--permittivity", "2.8")
        assert main(["corners", *self.SMALL, "--permittivity", "2.8"]) == 0
        nominal = capsys.readouterr().out.splitlines()[3].split()
        assert nominal[:3] == ["nominal", rank, normalized]

    def test_corner_job_nominal_matches_rank_job(self):
        """/v1/corners' nominal corner solves what /v1/rank solves."""
        from repro.schema import CornersRequest, RankRequest
        from repro.service.solve import solve_corner_job, solve_rank_job

        body = {"gates": 20_000, "bunch_size": 2000, "repeater_units": 64,
                "miller_factor": 1.0}
        corner = solve_corner_job(
            CornersRequest.from_wire(body).canonicalize(), "nominal", None
        )
        rank = solve_rank_job(RankRequest.from_wire(body).canonicalize(), None)
        assert (corner["rank"], corner["normalized"]) == (
            rank["rank"], rank["normalized"]
        )

    def test_optimize_greedy_matches_service(self, capsys):
        """`optimize --solver greedy` solves every candidate greedily,
        as /v1/optimize does, and picks the same best candidate."""
        from repro.schema import OptimizeRequest
        from repro.service.solve import solve_optimize_job

        assert main(["optimize", "--gates", "50000", "--bunch-size", "2000",
                     "--repeater-units", "64", "--k-classes", "3.9,2.8",
                     "--m-classes", "2.0", "--max-layers", "8",
                     "--solver", "greedy"]) == 0
        best = capsys.readouterr().out.splitlines()[-1]
        request = OptimizeRequest(
            gates=50_000, bunch_size=2000, repeater_units=64,
            solver="greedy", permittivities=(3.9, 2.8),
            miller_factors=(2.0,), max_metal_layers=8,
        )
        served = solve_optimize_job(request.canonicalize(), None)["best"]
        assert "solver=greedy" in best
        assert best.startswith(
            f"best: {served['label']} -> rank {served['rank']} "
        )

    def test_optimize_command(self, capsys):
        code = main(
            [
                "optimize",
                "--gates", "50000",
                "--bunch-size", "2000",
                "--repeater-units", "64",
                "--k-classes", "3.9,2.8",
                "--m-classes", "2.0",
                "--max-layers", "8",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Pareto" in out
        assert "best:" in out

    @pytest.mark.parametrize("command", [
        ["optimize", "--k-classes", "3.9,2.8", "--m-classes", "2.0", "--max-layers", "8"],
        ["rank"],
    ])
    def test_repeated_runs_print_identical_stdout(self, capsys, command):
        """A result line carries no wall time, so the same command
        prints the same bytes every run."""
        argv = command + ["--gates", "50000", "--bunch-size", "2000", "--repeater-units", "64"]
        outputs = []
        for _ in range(2):
            assert main(argv) == 0
            outputs.append(capsys.readouterr().out)
        assert "rank " in outputs[0]
        assert outputs[0] == outputs[1]


class TestExitCodes:
    """The documented exit-code contract: 0 clean, 1 total failure or
    library error, 2 usage error, 3 partial failure under --keep-going."""

    FAST = [
        "--gates", "20000", "--bunch-size", "2000", "--repeater-units", "64",
    ]

    def _fail_points(self, monkeypatch, indices):
        """Patch the sweep engine's compute_rank to fail chosen calls."""
        import repro.analysis.sweep as sweep_mod

        real = sweep_mod.compute_rank
        state = {"calls": 0}

        def flaky(problem, **kwargs):
            index = state["calls"]
            state["calls"] += 1
            if indices is None or index in indices:
                from repro.errors import RankComputationError

                raise RankComputationError(f"injected (call {index})")
            return real(problem, **kwargs)

        monkeypatch.setattr(sweep_mod, "compute_rank", flaky)

    def test_clean_run_exits_zero(self, capsys):
        assert main(["sweep", "R", *self.FAST]) == 0

    def test_usage_error_exits_two(self, capsys):
        assert main(["sweep", "Z"]) == 2
        assert main(["no-such-command"]) == 2

    def test_removed_flags_exit_two(self, capsys):
        """``--units`` (the old spelling of ``--repeater-units``),
        ``--backend`` and ``--checkpoint-every`` are gone, and ``curve``
        and ``report`` (always the DP) take no ``--solver``; argparse
        rejects them as usage errors."""
        assert main(["rank", *self.FAST, "--units", "64"]) == 2
        assert main(["nodes", "--units", "64"]) == 2
        assert main(["rank", *self.FAST, "--backend", "numpy"]) == 2
        assert main(["sweep", "R", *self.FAST, "--checkpoint-every", "5"]) == 2
        assert main(["curve", *self.FAST, "--solver", "greedy"]) == 2
        assert main(["report", *self.FAST, "--solver", "greedy"]) == 2

    def test_library_error_exits_one(self, capsys):
        assert main(["rank", "--node", "65nm"]) == 1

    @pytest.mark.parametrize(
        "argv,code,named",
        [
            (["curve", "--points", "0"], 2, "argument --points"),
            (["curve", "--points", "-3"], 2, "argument --points"),
            (["optimize", "--k-classes", "abc"], 2, "argument --k-classes"),
            (["optimize", "--k-classes", ","], 2, "argument --k-classes"),
            (["optimize", "--m-classes", "2.0,"], 2, "argument --m-classes"),
            (["optimize", "--k-classes", "nan"], 1, "permittivities[0]"),
            (["optimize", "--k-classes", "3.9,0.5"], 1, "permittivities[1]"),
            (["optimize", "--m-classes", "inf"], 1, "miller_factors[0]"),
            (["optimize", "--m-classes", "2.0,-1"], 1, "miller_factors[1]"),
            (["optimize", "--exhaustive-limit", "0"], 1,
             "exhaustive_limit: must be >= 1"),
            (["sweep", "R", "--max-retries", "-3"], 2, "argument --max-retries"),
            (["sweep", "R", "--timeout-s", "-1"], 2, "argument --timeout-s"),
            (["sweep", "R", "--repeater-units", "20000"], 1,
             "repeater_units: must be in"),
            (["corners", "--repeater-units", "20000"], 1,
             "repeater_units: must be in"),
            (["curve", "--repeater-units", "20000"], 1,
             "repeater_units: must be in"),
            (["report", "--repeater-units", "20000"], 1,
             "repeater_units: must be in"),
            (["rank", "--bunch-size", "-5"], 1, "bunch_size: must be >= 0"),
        ],
    )
    def test_bad_values_name_the_argument(self, capsys, argv, code, named):
        """Bad flag values are usage errors (exit 2) or library errors
        (exit 1) that name what is wrong, never a traceback.  The size
        flags go first so that each case's own flag is the one parsed."""
        assert main([argv[0], *self.FAST, *argv[1:]]) == code
        err = capsys.readouterr().err
        assert named in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["nodes", "--bunch-size", "-5"], "bunch_size: must be >= 0, got -5"),
            (["wld", "--gates", "0"], "gates: must be in [1, 100000000], got 0"),
            (["nodes", "--repeater-units", "20000"],
             "repeater_units: must be in [1, 16384], got 20000"),
        ],
    )
    def test_nodes_and_wld_flags_meet_the_wire_schema(self, capsys, argv, message):
        """``nodes`` and ``wld`` build their inputs from request fields
        too, so a bad value exits 1 with the wire's message before any
        work starts."""
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_total_failure_exits_one(self, monkeypatch, capsys):
        self._fail_points(monkeypatch, None)  # every point fails
        code = main(["sweep", "R", "--keep-going", *self.FAST])
        assert code == 1
        assert "FAILED" in capsys.readouterr().err

    def test_partial_failure_exits_three(self, monkeypatch, capsys):
        self._fail_points(monkeypatch, {1})
        code = main(["sweep", "R", "--keep-going", *self.FAST])
        assert code == 3
        err = capsys.readouterr().err
        assert "RankComputationError" in err
        assert "injected" in err

    def test_strict_mode_failure_exits_one(self, monkeypatch, capsys):
        self._fail_points(monkeypatch, {1})
        code = main(["sweep", "R", *self.FAST])
        assert code == 1

    def test_resume_completes_partial_sweep(
        self, monkeypatch, tmp_path, capsys
    ):
        path = tmp_path / "ck.json"
        self._fail_points(monkeypatch, {1})
        assert main(
            ["sweep", "R", "--keep-going", "--checkpoint", str(path),
             *self.FAST]
        ) == 3
        monkeypatch.undo()
        capsys.readouterr()
        assert main(["sweep", "R", "--resume", str(path), *self.FAST]) == 0
        out = capsys.readouterr().out
        assert len(out.strip().splitlines()) >= 5

    def test_max_retries_recovers_transient_failure(
        self, monkeypatch, capsys
    ):
        self._fail_points(monkeypatch, {1})  # attempt-level: only 1st try fails
        code = main(["sweep", "R", "--max-retries", "1", *self.FAST])
        assert code == 0


class TestNodeFileDiagnostics:
    """Malformed --node-file input exits 1 with a one-line diagnostic
    naming the offending field — never a traceback."""

    def _write(self, tmp_path, mutate):
        import json

        from repro.tech.io import node_to_dict
        from repro.tech.presets import NODE_130NM

        payload = json.loads(json.dumps(node_to_dict(NODE_130NM)))
        mutate(payload)
        path = tmp_path / "node.json"
        path.write_text(json.dumps(payload))
        return str(path)

    def test_negative_field_names_field_and_range(self, tmp_path, capsys):
        def mutate(p):
            p["metal_rules"]["global"]["min_width"] = -1

        code = main(["rank", "--node-file", self._write(tmp_path, mutate)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1  # a single diagnostic line
        assert "metal_rules.global.min_width" in err
        assert "> 0" in err

    def test_missing_field_named(self, tmp_path, capsys):
        def mutate(p):
            del p["device"]["output_resistance"]

        code = main(["rank", "--node-file", self._write(tmp_path, mutate)])
        assert code == 1
        assert "device.output_resistance" in capsys.readouterr().err

    def test_non_numeric_field_named(self, tmp_path, capsys):
        def mutate(p):
            p["feature_size"] = "130nm"

        code = main(["rank", "--node-file", self._write(tmp_path, mutate)])
        assert code == 1
        err = capsys.readouterr().err
        assert "feature_size" in err
        assert "expected a number" in err

    def test_missing_file_errors_cleanly(self, tmp_path, capsys):
        code = main(["rank", "--node-file", str(tmp_path / "absent.json")])
        assert code == 1
        assert "error" in capsys.readouterr().err


class TestFaultSchedule:
    """--fault-schedule arms deterministic chaos on any runner command."""

    FAST = [
        "--gates", "20000", "--bunch-size", "2000", "--repeater-units", "64",
    ]

    def test_flag_parsed(self):
        args = build_parser().parse_args(
            ["sweep", "R", "--fault-schedule", "[]"]
        )
        assert args.fault_schedule == "[]"

    def test_malformed_schedule_exits_one(self, capsys):
        code = main(
            ["sweep", "R", *self.FAST, "--fault-schedule", "[{bad"]
        )
        assert code == 1
        assert "fault schedule" in capsys.readouterr().err

    def test_injected_raise_recovered_by_retry(self, capsys):
        clean_argv = ["sweep", "R", *self.FAST, "--csv"]
        assert main(clean_argv) == 0
        clean = capsys.readouterr().out
        schedule = (
            '[{"site": "executor.attempt.start", "kind": "raise",'
            ' "attempt": 0}]'
        )
        code = main(
            clean_argv + ["--max-retries", "1", "--fault-schedule", schedule]
        )
        assert code == 0
        assert capsys.readouterr().out == clean

    def test_injected_raise_without_retry_fails(self, capsys):
        schedule = (
            '[{"site": "executor.attempt.start", "kind": "raise",'
            ' "attempt": 0}]'
        )
        code = main(
            ["sweep", "R", *self.FAST, "--fault-schedule", schedule]
        )
        assert code == 1
        assert "InjectedFault" in capsys.readouterr().err

    def test_keyboard_interrupt_exits_130(self, monkeypatch, capsys):
        import repro.cli as cli

        def interrupted(args):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "_cmd_sweep", interrupted)
        # set_defaults captured the original; re-dispatch through a
        # parser built after the patch.
        code = main(["sweep", "R", *self.FAST])
        assert code == 130
        assert "resumable" in capsys.readouterr().err
