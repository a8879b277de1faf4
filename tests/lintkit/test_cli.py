"""CLI contract: exit codes, selection, the removed baseline flags, JSON
output."""

import json

from repro.lintkit.cli import EXIT_FINDINGS, EXIT_OK, EXIT_USAGE, main
from repro.lintkit.reporters import JSON_SCHEMA_VERSION

from .conftest import PROJ, usage_exit

BAD = str(PROJ / "bad_literals.py")
GOOD = str(PROJ / "src" / "repro" / "core" / "good_determinism.py")
ROOT = ["--root", str(PROJ)]


class TestExitCodes:
    def test_clean_file_exits_zero(self, capsys):
        assert main([GOOD, *ROOT]) == EXIT_OK
        assert "0 finding(s)" in capsys.readouterr().out

    def test_findings_exit_one(self, capsys):
        assert main([BAD, *ROOT]) == EXIT_FINDINGS
        out = capsys.readouterr().out
        assert "RPL001" in out
        assert "4 finding(s)" in out

    def test_missing_path_exits_two(self, capsys):
        assert main([str(PROJ / "nope.py"), *ROOT]) == EXIT_USAGE
        assert "no such file" in capsys.readouterr().err

    def test_unknown_rule_code_exits_two(self, capsys):
        assert main([BAD, *ROOT, "--select", "RPL999"]) == EXIT_USAGE
        assert "unknown rule code" in capsys.readouterr().err


class TestSelection:
    def test_select_narrows(self, capsys):
        assert main([BAD, *ROOT, "--select", "RPL003"]) == EXIT_OK

    def test_ignore_drops(self, capsys):
        assert main([BAD, *ROOT, "--ignore", "RPL001"]) == EXIT_OK


class TestListRules:
    def test_lists_all_codes(self, capsys):
        assert main(["--list-rules"]) == EXIT_OK
        out = capsys.readouterr().out
        for code in ("RPL001", "RPL002", "RPL003", "RPL004", "RPL005"):
            assert code in out


class TestJSONOutput:
    def test_report_written_to_file(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        code = main(
            [BAD, *ROOT, "--format", "json", "--output", str(report)]
        )
        assert code == EXIT_FINDINGS
        payload = json.loads(report.read_text())
        assert payload["tool"] == "repro.lintkit"
        assert payload["summary"]["new"] == 4
        assert payload["summary"]["by_code"] == {"RPL001": 4}

    def test_stdout_json(self, capsys):
        assert main([BAD, *ROOT, "--format", "json"]) == EXIT_FINDINGS
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == JSON_SCHEMA_VERSION == 2


#: Flags that went with the baseline and the generated fault-site
#: registry (``repro.faultkit.schedule.SITES`` is the only site list).
REMOVED_FLAGS = (
    ["--baseline", "bl.json"],
    ["--no-baseline"],
    ["--write-baseline"],
    ["--strict-baseline"],
    ["--prune-stale"],
    ["--emit-fault-sites", "sites.md"],
    ["--check-fault-sites", "sites.md"],
)


class TestBaselineWorkflow:
    """There is no baseline: every removed flag is a usage error."""

    def test_write_then_gate_passes(self, capsys):
        for flag in REMOVED_FLAGS:
            assert usage_exit([BAD, *ROOT, *flag]) == EXIT_USAGE
            assert f"unrecognized arguments: {flag[0]}" in capsys.readouterr().err

    def test_no_baseline_flag_reports_everything(self, capsys):
        assert main([BAD, *ROOT]) == EXIT_FINDINGS
        out = capsys.readouterr().out
        assert "4 finding(s) in 1 file(s) [RPL001: 4]" in out
        assert "baselined" not in out

    def test_stale_entries_warn_then_fail_strict(self, capsys):
        assert main([GOOD, *ROOT]) == EXIT_OK
        assert "stale" not in capsys.readouterr().out
        assert usage_exit([GOOD, *ROOT, "--strict-baseline"]) == EXIT_USAGE

    def test_regeneration_preserves_justifications(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert usage_exit([BAD, *ROOT, "--write-baseline"]) == EXIT_USAGE
        assert list(tmp_path.iterdir()) == []

    def test_corrupt_baseline_exits_two(self, tmp_path, capsys):
        bl = tmp_path / "bl.json"
        bl.write_text("{broken")
        assert usage_exit([BAD, *ROOT, "--baseline", str(bl)]) == EXIT_USAGE


class TestModuleEntrypoint:
    def test_python_dash_m_runs(self):
        import subprocess
        import sys
        from pathlib import Path

        repo = Path(__file__).resolve().parents[2]
        proc = subprocess.run(
            [sys.executable, "-m", "repro.lintkit", "--list-rules"],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": str(repo / "src"), "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 0
        assert "RPL001" in proc.stdout
