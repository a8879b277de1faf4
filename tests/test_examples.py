"""Smoke tests: every example script runs end to end.

Examples are documentation that executes; breaking one silently is a
release bug.  Each runs in-process at reduced design size.
"""

import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def run_example(monkeypatch, name, argv):
    monkeypatch.setattr(sys, "argv", [name] + argv)
    runpy.run_path(str(EXAMPLES / name), run_name="__main__")


def test_quickstart(monkeypatch, capsys):
    run_example(monkeypatch, "quickstart.py", ["--gates", "50000"])
    out = capsys.readouterr().out
    assert "Rank" in out
    assert "Winning prefix" in out


def test_table4_sweeps(monkeypatch, capsys):
    run_example(
        monkeypatch,
        "table4_sweeps.py",
        ["--gates", "50000", "--columns", "R", "--bunch", "2000"],
    )
    out = capsys.readouterr().out
    assert "Table 4, column R" in out
    assert "improvement" in out


def test_material_vs_geometry(monkeypatch, capsys):
    run_example(
        monkeypatch,
        "material_vs_geometry.py",
        ["--gates", "50000", "--bunch", "2000"],
    )
    out = capsys.readouterr().out
    assert "Equivalent reductions" in out


def test_greedy_counterexample(monkeypatch, capsys):
    run_example(monkeypatch, "greedy_counterexample.py", [])
    out = capsys.readouterr().out
    assert "rank 4" in out


def test_technology_scaling(monkeypatch, capsys):
    run_example(monkeypatch, "technology_scaling.py", ["--quick"])
    out = capsys.readouterr().out
    assert "180nm" in out and "90nm" in out


def test_coarsening_tradeoff(monkeypatch, capsys):
    run_example(monkeypatch, "coarsening_tradeoff.py", ["--gates", "50000"])
    out = capsys.readouterr().out
    assert "Bunching trade-off" in out


def test_custom_architecture(monkeypatch, capsys):
    run_example(monkeypatch, "custom_architecture.py", ["--gates", "50000"])
    out = capsys.readouterr().out
    assert "Candidate 130 nm stacks" in out


def test_beol_cooptimization(monkeypatch, capsys):
    run_example(monkeypatch, "beol_cooptimization.py", ["--gates", "50000"])
    out = capsys.readouterr().out
    assert "Pareto frontier" in out
    assert "best stack" in out
