"""There is no baseline: a finding is either fixed or carries a justified
``# noqa: RPLnnn``.  These tests pin that the baseline module, its data
file and its flags are gone, and that nothing grandfathers a finding."""

import importlib
import io
import json
import re
import tokenize
from dataclasses import fields
from importlib.util import find_spec

import pytest

from repro.lintkit import Finding, lint_paths
from repro.lintkit.cli import DEFAULT_PATHS, EXIT_FINDINGS, EXIT_USAGE, main

from .conftest import PROJ, usage_exit

BAD = str(PROJ / "bad_literals.py")
ROOT = ["--root", str(PROJ)]

#: ``# noqa: RPLnnn[, RPLnnn]`` plus whatever follows on the line.
NOQA = re.compile(r"noqa:\s*RPL\d+(?:\s*,\s*RPL\d+)*(?P<why>.*)")


class TestRoundTrip:
    def test_save_load_apply_absorbs_everything(self, tmp_path, capsys):
        bl = tmp_path / "bl.json"
        code = usage_exit([BAD, *ROOT, "--baseline", str(bl), "--write-baseline"])
        assert code == EXIT_USAGE
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not bl.exists()

    def test_fixed_violation_reported_stale(self, capsys):
        assert usage_exit([BAD, *ROOT, "--strict-baseline"]) == EXIT_USAGE
        assert "--strict-baseline" in capsys.readouterr().err

    def test_new_violation_not_absorbed(self, tmp_path, capsys):
        # A lint_baseline.json at the root is no longer picked up.
        src = tmp_path / "bad.py"
        src.write_text("def f(v):\n    return v / 1e-9\n")
        (tmp_path / "lint_baseline.json").write_text(
            json.dumps({"version": 1, "entries": []})
        )
        assert main([str(src), "--root", str(tmp_path)]) == EXIT_FINDINGS
        out = capsys.readouterr().out
        assert "1 finding(s) in 1 file(s)" in out
        assert "baselined" not in out


class TestFingerprints:
    def test_line_number_independent(self):
        assert [f.name for f in fields(Finding)] == [
            "path", "line", "col", "code", "message"
        ]

    def test_sensitive_to_code_path_and_text(self):
        finding = Finding("p.py", 1, 0, "RPL001", "m")
        assert not hasattr(finding, "fingerprint")
        assert not hasattr(finding, "with_fingerprint")


class TestCapacity:
    def test_identical_lines_need_matching_count(self, tmp_path):
        src = tmp_path / "dupes.py"
        src.write_text(
            "def f(v):\n"
            "    a = v / 1e-9\n"
            "    a = v / 1e-9\n"
            "    return a\n"
        )
        findings, _ = lint_paths([src], tmp_path, select=["RPL001"])
        assert [f.line for f in findings] == [2, 3]


class TestJustifications:
    def test_carried_over_on_regeneration(self, tmp_path):
        # The justification now travels with the line it excuses.
        src = tmp_path / "justified.py"
        src.write_text(
            "def f(v):\n"
            "    # Relative tolerance, not a unit conversion.\n"
            "    return v < 1e-9 * v  # noqa: RPL001\n"
        )
        findings, _ = lint_paths([src], tmp_path, select=["RPL001"])
        assert findings == []

    def test_serialized_only_when_present(self, capsys):
        main([BAD, *ROOT, "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["findings"]
        assert all("fingerprint" not in f for f in payload["findings"])
        assert "justification" not in json.dumps(payload)


class TestErrors:
    def test_malformed_json_raises(self):
        assert find_spec("repro.lintkit.baseline") is None
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.lintkit.baseline")

    def test_wrong_version_raises(self, tmp_path, capsys):
        bl = tmp_path / "bl.json"
        bl.write_text(json.dumps({"version": 99, "entries": []}))
        assert usage_exit([BAD, *ROOT, "--baseline", str(bl)]) == EXIT_USAGE
        assert "--baseline" in capsys.readouterr().err

    def test_malformed_entry_raises(self, capsys):
        assert usage_exit([BAD, *ROOT, "--no-baseline"]) == EXIT_USAGE
        assert "--no-baseline" in capsys.readouterr().err


class TestCommittedBaseline:
    def test_every_entry_is_justified(self):
        """No baseline file is committed, and every ``# noqa: RPLnnn``
        in the gate's paths has a justification comment on its line or
        the line above: a bare suppression is indistinguishable from an
        ignored finding."""
        import pathlib

        repo = pathlib.Path(__file__).resolve().parents[2]
        assert not (repo / "lint_baseline.json").exists()
        files = []
        for top in DEFAULT_PATHS:
            files += [
                p for p in sorted((repo / top).rglob("*.py"))
                if "fixtures" not in p.parts and "__pycache__" not in p.parts
            ]
        bare = []
        for path in files:
            source = path.read_text(encoding="utf-8")
            lines = source.splitlines()
            for tok in tokenize.generate_tokens(io.StringIO(source).readline):
                match = NOQA.search(tok.string)
                if tok.type != tokenize.COMMENT or match is None:
                    continue
                number = tok.start[0]
                above = lines[number - 2].strip() if number > 1 else ""
                if not (above.startswith("#") or match.group("why").strip()):
                    bare.append(f"{path.relative_to(repo)}:{number}")
        assert bare == []
