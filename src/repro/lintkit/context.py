"""Per-file parse state and the finding record rules emit."""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, FrozenSet, List, Optional

#: Matches ``# noqa`` / ``# noqa: RPL001`` / ``# noqa: RPL001, RPL004``
#: anywhere in a physical line.  An empty code list suppresses every rule
#: on that line; an explicit list suppresses only the named codes.
_NOQA_RE = re.compile(r"#\s*noqa(?::\s*(?P<codes>[A-Z]+[0-9]+(?:\s*,\s*[A-Z]+[0-9]+)*))?", re.IGNORECASE)

#: Sentinel set meaning "every code is suppressed on this line".
ALL_CODES: FrozenSet[str] = frozenset({"*"})


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at a source location."""

    path: str  # repo-relative, POSIX separators
    line: int  # 1-based
    col: int  # 0-based
    code: str
    message: str

    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.col + 1}"


def _noqa_codes(line: str) -> Optional[FrozenSet[str]]:
    """Codes suppressed by a ``# noqa`` comment on ``line`` (or None)."""
    match = _NOQA_RE.search(line)
    if match is None:
        return None
    codes = match.group("codes")
    if not codes:
        return ALL_CODES
    return frozenset(c.strip().upper() for c in codes.split(","))


class FileContext:
    """A parsed source file plus the metadata rules need.

    Attributes
    ----------
    path:
        Absolute path on disk.
    rel:
        Repo-relative POSIX path (what findings record).
    module:
        Dotted module name when the file lives under ``src/`` (e.g.
        ``repro.core.dp``), else ``None``.
    tree:
        The parsed :class:`ast.Module`, or ``None`` on syntax error.
    syntax_error:
        The :class:`SyntaxError` raised during parsing, if any.
    """

    def __init__(self, path: Path, root: Path) -> None:
        self.path = path
        try:
            rel_path = path.resolve().relative_to(root.resolve())
        except ValueError:
            rel_path = path
        self.rel = rel_path.as_posix()
        self.module = _module_name(self.rel)
        self.source = path.read_text(encoding="utf-8")
        self.lines: List[str] = self.source.splitlines()
        self.tree: Optional[ast.Module] = None
        self.syntax_error: Optional[SyntaxError] = None
        try:
            self.tree = ast.parse(self.source, filename=str(path))
        except SyntaxError as exc:  # surfaced as an RPL000 finding
            self.syntax_error = exc
        self._noqa: Dict[int, FrozenSet[str]] = {}
        for number, line in enumerate(self.lines, start=1):
            codes = _noqa_codes(line)
            if codes is not None:
                self._noqa[number] = codes
        self._parents: Optional[Dict[ast.AST, ast.AST]] = None

    # ------------------------------------------------------------------
    # Helpers for rules
    # ------------------------------------------------------------------

    def in_module(self, *prefixes: str) -> bool:
        """Whether this file's module matches any dotted prefix."""
        if self.module is None:
            return False
        return any(
            self.module == p or self.module.startswith(p + ".") for p in prefixes
        )

    def in_path(self, *prefixes: str) -> bool:
        """Whether the repo-relative path matches any prefix."""
        return any(
            self.rel == p or self.rel.startswith(p.rstrip("/") + "/")
            for p in prefixes
        )

    def is_suppressed(self, line: int, code: str) -> bool:
        codes = self._noqa.get(line)
        if codes is None:
            return False
        return codes is ALL_CODES or code.upper() in codes

    def parent_map(self) -> Dict[ast.AST, ast.AST]:
        """Lazily-built child → parent map over the AST."""
        if self._parents is None:
            parents: Dict[ast.AST, ast.AST] = {}
            if self.tree is not None:
                for node in ast.walk(self.tree):
                    for child in ast.iter_child_nodes(node):
                        parents[child] = node
            self._parents = parents
        return self._parents

    def finding(self, node: ast.AST, code: str, message: str) -> Finding:
        """Build a :class:`Finding` anchored at ``node``."""
        return Finding(
            path=self.rel,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            code=code,
            message=message,
        )


def _module_name(rel: str) -> Optional[str]:
    """Dotted module name for files under a ``src/`` layout."""
    parts = rel.split("/")
    if "src" not in parts:
        return None
    idx = parts.index("src")
    tail = parts[idx + 1 :]
    if not tail or not tail[-1].endswith(".py"):
        return None
    tail[-1] = tail[-1][: -len(".py")]
    if tail[-1] == "__init__":
        tail = tail[:-1]
    if not tail:
        return None
    return ".".join(tail)
