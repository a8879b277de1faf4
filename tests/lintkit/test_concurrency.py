"""The concurrency-safety rules (RPL007, RPL008, RPL011) against the
fixture mini-repo, the fault-site checker of
``tests/faultkit/test_fault_sites.py`` against its chaos fixtures, and
the CLI surface that rides on them (``--explain``; the removed
``--prune-stale`` / ``--emit-fault-sites`` / ``--check-fault-sites``).

Each bad/good fixture pair forces one real defect class end to end: a
blocking call below an async handler, a module-level lock used after
fork, and a chaos glob that matches no registered site are all demonstrably caught,
while the good twins (and the deliberately *unreachable* decoys) stay
clean — the reachability classification, not a grep, is what fires.
"""

from importlib.util import find_spec

import pytest

from repro.lintkit import all_rules, lint_paths
from repro.lintkit.callgraph import analyze
from repro.lintkit.cli import EXIT_OK, EXIT_USAGE, main

from ..faultkit.test_fault_sites import python_files, site_defects
from .conftest import PROJ, run_lint, usage_exit

SRV = "src/repro/srv"
POOL = "src/repro/pool"
CHAOS = "src/repro/chaos"
CORE = "src/repro/core"
ROOT = ["--root", str(PROJ)]


class TestCallGraph:
    def test_reachability_classification(self):
        _, contexts = lint_paths([PROJ / SRV, PROJ / POOL], PROJ)
        graph = analyze(contexts)
        # Loop side: the async handler seeds, its sync helper inherits.
        assert "repro.srv.bad_handler.handle_request" in graph.loop_seeds
        assert "repro.srv.bad_handler._load_config" in graph.loop_reachable
        # Fork side: Process(target=...) seeds; a .submit payload runs
        # on a thread pool, so it neither seeds nor is fork-reachable.
        assert "repro.pool.bad_worker._worker_main" in graph.fork_seeds
        assert "repro.srv.bad_handler._solve" not in graph.fork_seeds
        assert "repro.srv.bad_handler._solve" not in graph.fork_reachable
        # The decoys are reachable from nothing.
        decoy = "repro.srv.good_handler._offline_maintenance"
        assert decoy not in graph.loop_reachable
        assert decoy not in graph.fork_reachable
        assert (
            "repro.pool.good_worker._audit_locked"
            not in graph.fork_reachable
        )

    def test_chain_is_evidence_not_guess(self):
        _, contexts = lint_paths([PROJ / SRV], PROJ)
        graph = analyze(contexts)
        chain = graph.chain("repro.srv.bad_handler._load_config", "loop")
        assert "handle_request" in chain and "_load_config" in chain


class TestAsyncBlocking:  # RPL007
    def test_blocking_calls_caught(self):
        findings = run_lint(f"{SRV}/bad_handler.py", select=["RPL007"])
        assert sorted(f.line for f in findings) == [7, 12, 15]
        messages = " ".join(f.message for f in findings)
        assert "time.sleep" in messages
        assert "open()" in messages
        assert ".result()" in messages
        # Every finding carries the loop-reachability chain as evidence.
        assert all("handle_request" in f.message for f in findings)

    def test_executor_payload_is_off_loop(self):
        # _solve blocks too, but it runs inside the executor — the
        # structural exemption: a .submit() argument is not a call edge.
        findings = run_lint(f"{SRV}/bad_handler.py", select=["RPL007"])
        assert 20 not in {f.line for f in findings}

    def test_good_handler_clean(self):
        assert run_lint(f"{SRV}/good_handler.py", select=["RPL007"]) == []


class TestForkSafety:  # RPL008
    def test_module_handle_and_hostile_param_caught(self):
        findings = run_lint(f"{POOL}/bad_worker.py", select=["RPL008"])
        assert sorted(f.line for f in findings) == [9, 10]
        messages = " ".join(f.message for f in findings)
        assert "_LOCK" in messages
        assert "threading.Event" in messages

    def test_child_local_lock_and_decoy_clean(self):
        assert run_lint(f"{POOL}/good_worker.py", select=["RPL008"]) == []


class TestFaultSites:  # tests/faultkit/test_fault_sites.py
    def test_unmatched_glob_nonliteral_site_and_json_caught(self):
        defects = site_defects(python_files(PROJ / CHAOS), PROJ)
        assert [line for _, line, _ in defects] == [7, 10, 12]
        assert all(path.endswith("bad_sites.py") for path, _, _ in defects)
        messages = " ".join(message for _, _, message in defects)
        assert "string literal" in messages
        assert "fixture.pool.strat" in messages
        assert "fixture.nope.*" in messages
        # The good twin alone is clean: its globs match its own sites.
        assert site_defects(python_files(PROJ / CHAOS / "good_sites.py"), PROJ) == []

    def test_glob_checks_need_a_registry(self):
        # The bad file alone registers no site, so nothing is skipped:
        # with an empty registry every glob matches nothing.
        defects = site_defects(python_files(PROJ / CHAOS / "bad_sites.py"), PROJ)
        assert [line for _, line, _ in defects] == [7, 10, 12]


class TestDeadlineCoverage:  # RPL011
    def test_unchecked_loops_caught(self):
        findings = run_lint(f"{CORE}/bad_deadline.py", select=["RPL011"])
        assert sorted(f.line for f in findings) == [6, 8]

    def test_check_forward_noqa_and_constant_covered(self):
        assert run_lint(f"{CORE}/good_deadline.py", select=["RPL011"]) == []


class TestExplain:
    @pytest.mark.parametrize("code", ["RPL001", "RPL007", "RPL011"])
    def test_explains_every_rule(self, code, capsys):
        assert main(["--explain", code]) == EXIT_OK
        out = capsys.readouterr().out
        assert code in out
        assert "Triggers:" in out
        assert "Passes:" in out

    def test_unknown_code_is_usage_error(self, capsys):
        assert main(["--explain", "RPL999"]) == EXIT_USAGE
        assert "unknown rule code" in capsys.readouterr().err


class TestPruneStale:
    """``--prune-stale`` went with the baseline: it is an unknown flag."""

    def test_drops_dead_entries_keeps_live(self, tmp_path, capsys):
        bad = str(PROJ / CORE / "bad_deadline.py")
        assert usage_exit([bad, *ROOT, "--prune-stale"]) == EXIT_USAGE
        assert "unrecognized arguments: --prune-stale" in capsys.readouterr().err

    def test_needs_an_existing_baseline(self, tmp_path, capsys):
        bad = str(PROJ / CORE / "bad_deadline.py")
        missing = str(tmp_path / "nope.json")
        assert usage_exit([bad, *ROOT, "--baseline", missing]) == EXIT_USAGE


class TestFaultSiteRegistry:
    """The generated registry is gone; ``SITES`` is the only list."""

    def test_emit_then_check_roundtrip(self, tmp_path, capsys):
        for flag in ("--emit-fault-sites", "--check-fault-sites"):
            argv = [str(PROJ / CHAOS), *ROOT, flag, str(tmp_path / "sites.md")]
            assert usage_exit(argv) == EXIT_USAGE
            assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    def test_check_fails_when_stale(self):
        assert find_spec("repro.lintkit.rules.rpl010_fault_sites") is None
        assert "RPL010" not in {cls.code for cls in all_rules()}
