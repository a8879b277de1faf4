"""The concurrency-safety rules (RPL007, RPL008, RPL010, RPL011)
against the fixture mini-repo, plus the CLI surface that rides on them
(``--explain``, ``--prune-stale``, ``--emit-fault-sites`` /
``--check-fault-sites``).

Each bad/good fixture pair forces one real defect class end to end: a
blocking call below an async handler, a module-level lock used after
fork, and a chaos glob that matches no registered site are all demonstrably caught,
while the good twins (and the deliberately *unreachable* decoys) stay
clean — the reachability classification, not a grep, is what fires.
"""

import json

import pytest

from repro.lintkit import lint_paths
from repro.lintkit.callgraph import analyze
from repro.lintkit.cli import EXIT_FINDINGS, EXIT_OK, EXIT_USAGE, main

from .conftest import PROJ, run_lint

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
        # Fork side: Process(target=...) and .submit payloads seed.
        assert "repro.pool.bad_worker._worker_main" in graph.fork_seeds
        assert "repro.srv.bad_handler._solve" in graph.fork_reachable
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


class TestFaultSites:  # RPL010
    def test_unmatched_glob_nonliteral_site_and_json_caught(self):
        findings = run_lint(CHAOS, select=["RPL010"])
        assert sorted(f.line for f in findings) == [7, 10, 12]
        assert all(f.path.endswith("bad_sites.py") for f in findings)
        messages = " ".join(f.message for f in findings)
        assert "string literal" in messages
        assert "fixture.pool.strat" in messages
        assert "fixture.nope.*" in messages

    def test_glob_checks_need_a_registry(self):
        # Linting only the bad file registers no sites, so glob
        # validation has nothing to validate against: only the
        # non-literal site fires.
        findings = run_lint(f"{CHAOS}/bad_sites.py", select=["RPL010"])
        assert [f.line for f in findings] == [7]


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
    def test_drops_dead_entries_keeps_live(self, tmp_path, capsys):
        bad = str(PROJ / CORE / "bad_deadline.py")
        baseline = tmp_path / "baseline.json"
        assert main([bad, *ROOT, "--baseline", str(baseline),
                     "--write-baseline"]) == EXIT_OK
        payload = json.loads(baseline.read_text())
        live = len(payload["entries"])
        assert live > 0
        payload["entries"].append({
            "fingerprint": "deadbeefdeadbeef",
            "code": "RPL011",
            "path": "src/repro/core/gone.py",
            "line_text": "while gone:",
            "count": 3,
            "justification": "kept so pruning has something to prune",
        })
        baseline.write_text(json.dumps(payload))
        assert main([bad, *ROOT, "--baseline", str(baseline),
                     "--prune-stale"]) == EXIT_OK
        assert "stale occurrence(s) removed" in capsys.readouterr().out
        pruned = json.loads(baseline.read_text())
        assert len(pruned["entries"]) == live
        assert all(
            e["fingerprint"] != "deadbeefdeadbeef"
            for e in pruned["entries"]
        )
        # Pruning is idempotent and the gate now passes clean.
        assert main([bad, *ROOT, "--baseline", str(baseline),
                     "--strict-baseline"]) == EXIT_OK

    def test_needs_an_existing_baseline(self, tmp_path, capsys):
        bad = str(PROJ / CORE / "bad_deadline.py")
        missing = tmp_path / "nope.json"
        assert main([bad, *ROOT, "--baseline", str(missing),
                     "--prune-stale"]) == EXIT_USAGE
        assert "existing baseline" in capsys.readouterr().err


class TestFaultSiteRegistry:
    def test_emit_then_check_roundtrip(self, tmp_path, capsys):
        registry = tmp_path / "fault_sites.md"
        chaos = str(PROJ / CHAOS)
        assert main([chaos, *ROOT,
                     "--emit-fault-sites", str(registry)]) == EXIT_OK
        assert "2 registered site(s)" in capsys.readouterr().out
        text = registry.read_text()
        assert "`fixture.pool.start`" in text
        assert "`fixture.pool.result`" in text
        assert main([chaos, *ROOT,
                     "--check-fault-sites", str(registry)]) == EXIT_OK

    def test_check_fails_when_stale(self, tmp_path, capsys):
        registry = tmp_path / "fault_sites.md"
        chaos = str(PROJ / CHAOS)
        assert main([chaos, *ROOT,
                     "--emit-fault-sites", str(registry)]) == EXIT_OK
        registry.write_text(registry.read_text() + "drift\n")
        assert main([chaos, *ROOT,
                     "--check-fault-sites", str(registry)]) == EXIT_FINDINGS
        assert "stale" in capsys.readouterr().err
