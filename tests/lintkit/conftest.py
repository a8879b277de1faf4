"""Shared fixtures for the lintkit test suite.

The fixture mini-repo under ``fixtures/proj/`` mirrors the real src
layout (``src/repro/...``, ``tools/``) so module- and path-scoped rules
fire exactly as they do on the repository itself.  The ``fixtures``
directory is on the engine's walk skip-list; tests lint these files by
passing explicit paths, which bypasses the skip.
"""

from pathlib import Path

import pytest

from repro.lintkit import lint_paths
from repro.lintkit.cli import main

FIXTURES = Path(__file__).parent / "fixtures"
PROJ = FIXTURES / "proj"


@pytest.fixture(scope="session")
def proj_root():
    return PROJ


def run_lint(*rel_paths, select=None, ignore=None, root=PROJ):
    """Lint fixture files (paths relative to the mini-repo root)."""
    paths = [root / p for p in rel_paths] if rel_paths else [root]
    findings, contexts = lint_paths(paths, root, select=select, ignore=ignore)
    return findings


@pytest.fixture
def lint():
    return run_lint


def usage_exit(argv):
    """Exit status of a CLI argv that argparse rejects (unknown flag)."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    return exc.value.code
