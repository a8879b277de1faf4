"""The repository gates itself: ``python -m repro.lintkit`` with no
paths, run from the repo root, must report no finding.  CI runs the
same bare command, so both lint the CLI's default path set."""

from pathlib import Path

from repro.lintkit.cli import EXIT_OK, main

REPO = Path(__file__).resolve().parents[2]


def test_repo_is_clean_under_committed_baseline(capsys):
    code = main(["--root", str(REPO)])
    out = capsys.readouterr().out
    assert code == EXIT_OK, f"lint gate failed:\n{out}"
    assert out.startswith("0 finding(s) in ")
    assert "baselined" not in out


def test_fixture_violations_are_walk_skipped(capsys):
    """The deliberately-violating fixture files must never leak into the
    repo gate: directory walks skip ``fixtures`` directories."""
    code = main([str(REPO / "tests" / "lintkit"), "--root", str(REPO)])
    assert code == EXIT_OK
