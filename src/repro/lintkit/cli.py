"""Command-line front end: ``python -m repro.lintkit [paths]``.

With no paths it lints :data:`DEFAULT_PATHS`, the repo's own gate (CI
and ``tests/lintkit/test_repo_clean.py`` run exactly that).  There is
no baseline: a finding is either fixed or carries a justified
``# noqa: RPLnnn`` on its line.

Exit codes (stable contract, asserted by ``tests/lintkit/test_cli.py``):

* ``0`` — no findings;
* ``1`` — at least one finding;
* ``2`` — usage error (unknown flag or rule code, missing path).
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from .engine import lint_paths
from .registry import all_rules
from .reporters import render_json, render_text

EXIT_OK = 0
EXIT_FINDINGS = 1
EXIT_USAGE = 2

#: Paths linted when none are given (the repo's own gate).
DEFAULT_PATHS = ("src", "tests", "tools", "benchmarks", "examples")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lintkit",
        description="Repo-specific static analysis (rules RPL001-RPL011).",
    )
    parser.add_argument(
        "paths", nargs="*",
        help=f"files or directories to lint (default: {' '.join(DEFAULT_PATHS)})",
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--output", metavar="FILE",
        help="write the report to FILE instead of stdout",
    )
    parser.add_argument(
        "--select", metavar="CODES",
        help="comma-separated rule codes to run (default: all)",
    )
    parser.add_argument(
        "--ignore", metavar="CODES",
        help="comma-separated rule codes to skip",
    )
    parser.add_argument(
        "--root", metavar="DIR", default=".",
        help="repository root findings are reported relative to "
        "(default: cwd)",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the registered rules and exit",
    )
    parser.add_argument(
        "--explain", metavar="CODE",
        help="print one rule's rationale with trigger/avoid examples and exit",
    )
    return parser


def _list_rules() -> str:
    lines = []
    for cls in all_rules():
        lines.append(f"{cls.code}  {cls.name}")
        lines.append(f"    {cls.description}")
    return "\n".join(lines)


def _indent(block: str) -> str:
    return "\n".join(f"    {line}" for line in block.splitlines())


def _explain(code: str) -> Optional[str]:
    """Human-oriented writeup of one rule: rationale plus examples."""
    wanted = code.strip().upper()
    for cls in all_rules():
        if cls.code != wanted:
            continue
        parts = [f"{cls.code} — {cls.name}", "", cls.description]
        module = sys.modules.get(cls.__module__)
        doc = (module.__doc__ or "").strip() if module else ""
        if doc:
            parts += ["", doc]
        trigger = getattr(cls, "example_trigger", "")
        avoid = getattr(cls, "example_avoid", "")
        if trigger:
            parts += ["", "Triggers:", _indent(trigger)]
        if avoid:
            parts += ["", "Passes:", _indent(avoid)]
        return "\n".join(parts)
    return None


def _codes(raw: Optional[str]) -> Optional[List[str]]:
    if raw is None:
        return None
    return [c.strip() for c in raw.split(",") if c.strip()]


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        return _run(argv)
    except BrokenPipeError:
        # Downstream consumer (e.g. ``--explain ... | head``) closed
        # stdout early; that is a normal way to stop reading, not a
        # failure.  Detach stdout so the interpreter's shutdown flush
        # cannot raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_OK


def _run(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        print(_list_rules())
        return EXIT_OK

    if args.explain:
        text = _explain(args.explain)
        if text is None:
            print(f"error: unknown rule code {args.explain!r}", file=sys.stderr)
            return EXIT_USAGE
        print(text)
        return EXIT_OK

    root = Path(args.root)
    paths = [Path(p) for p in args.paths] or [
        root / p for p in DEFAULT_PATHS if (root / p).exists()
    ]
    missing = [p for p in paths if not p.exists()]
    if missing:
        print(
            f"error: no such file or directory: "
            f"{', '.join(str(p) for p in missing)}",
            file=sys.stderr,
        )
        return EXIT_USAGE

    try:
        findings, contexts = lint_paths(
            paths, root, select=_codes(args.select), ignore=_codes(args.ignore)
        )
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return EXIT_USAGE

    renderer = render_json if args.format == "json" else render_text
    report = renderer(findings, files=len(contexts))
    if args.output:
        Path(args.output).write_text(report + "\n", encoding="utf-8")
    else:
        print(report)
    return EXIT_FINDINGS if findings else EXIT_OK
