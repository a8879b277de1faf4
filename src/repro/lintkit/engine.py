"""File collection and rule execution."""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, List, Optional, Sequence, Tuple

from .context import FileContext, Finding
from .registry import Rule, select_rules

#: Directory names skipped while walking trees.  ``fixtures`` is on the
#: list because lint-rule fixture files (tests/lintkit/fixtures/) are
#: *intentionally* full of violations; tests lint them by passing the
#: file path explicitly, which bypasses the walk and its skip list.
SKIP_DIRS = frozenset({"__pycache__", ".git", ".hypothesis", "fixtures", "node_modules"})


def collect_files(paths: Sequence[Path]) -> List[Path]:
    """Expand files/directories into a sorted, deduplicated .py list.

    Explicitly-named files are always included (even inside a skipped
    directory); directory walks skip :data:`SKIP_DIRS` and hidden
    entries.
    """
    seen = set()
    out: List[Path] = []

    def add(p: Path) -> None:
        resolved = p.resolve()
        if resolved not in seen:
            seen.add(resolved)
            out.append(p)

    for path in paths:
        if path.is_file():
            add(path)
        elif path.is_dir():
            for candidate in sorted(path.rglob("*.py")):
                parts = candidate.relative_to(path).parts
                if any(part in SKIP_DIRS or part.startswith(".") for part in parts[:-1]):
                    continue
                if candidate.name.startswith("."):
                    continue
                add(candidate)
        else:
            raise FileNotFoundError(f"no such file or directory: {path}")
    return sorted(out, key=lambda p: p.resolve().as_posix())


def lint_paths(
    paths: Sequence[Path],
    root: Optional[Path] = None,
    *,
    select: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
) -> Tuple[List[Finding], List[FileContext]]:
    """Run the active rules over ``paths``.

    Returns ``(findings, contexts)``: findings are ``# noqa``-filtered
    and sorted by (path, line, col, code); contexts are returned so
    callers (the CLI's file count, the call-graph tests) can reuse the
    parsed files.

    Unparsable files yield a single ``RPL000`` finding rather than
    aborting the run — a syntax error in one file must not mask
    findings in the rest.
    """
    root = (root or Path.cwd()).resolve()
    files = collect_files([Path(p) for p in paths])
    contexts = [FileContext(f, root) for f in files]

    rules: List[Rule] = select_rules(select, ignore)
    for rule in rules:
        rule.prepare(contexts)

    findings: List[Finding] = []
    for ctx in contexts:
        if ctx.syntax_error is not None:
            err = ctx.syntax_error
            findings.append(
                Finding(
                    path=ctx.rel,
                    line=err.lineno or 1,
                    col=(err.offset or 1) - 1,
                    code="RPL000",
                    message=f"syntax error: {err.msg}",
                )
            )
            continue
        for rule in rules:
            for finding in rule.check(ctx):
                if not ctx.is_suppressed(finding.line, finding.code):
                    findings.append(finding)
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.code))
    return findings, contexts
