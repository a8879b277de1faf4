"""RPL004 — facade boundary.

:mod:`repro.api` is the stable, keyword-only public surface (PR 4);
``repro.core`` and ``repro.assign`` are implementation internals whose
signatures may churn freely.  Caller layers — the CLI, the HTTP
serving layer (``service/``), ``tools/``, ``benchmarks/`` — must import
the facade so internal refactors never ripple outward.  The facade
carries non-shadowing spellings where the obvious name collides with a
subpackage (``api.optimize_rank`` for ``api.optimize``, which cannot be
re-exported at top level without shadowing ``repro.optimize``), so no
caller layer has a structural excuse to reach inside.

Flagged: any ``import``/``from`` of ``repro.core``/``repro.assign`` (or
their relative spellings ``from .core ...`` / ``from ..assign ...``)
from a scoped file.  Exempt: imports inside ``if TYPE_CHECKING:``
blocks, which express a typing dependency without runtime coupling.

``analysis/`` is not scoped: it is the layer :mod:`repro.api`
delegates to (``api.sweep``, ``api.corners`` and friends call into it),
so it implements the facade and cannot import ``repro.api`` back
without a cycle.  Its ``repro.core`` imports are the facade's own
plumbing, not a caller reaching inside.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Set

from ..context import FileContext, Finding
from ..registry import Rule, register

#: Repo-relative path prefixes under the facade contract.
SCOPED_PATHS = (
    "src/repro/cli.py",
    "src/repro/service",
    "tools",
    "benchmarks",
)

#: Forbidden import targets (dotted-module prefixes).
INTERNAL_PACKAGES = ("repro.core", "repro.assign")


@register
class FacadeBoundaryRule(Rule):
    code = "RPL004"
    name = "facade-boundary"
    description = (
        "Caller layers (cli.py, service/, tools/, benchmarks/) must "
        "import the stable repro.api facade, not "
        "repro.core / repro.assign internals; TYPE_CHECKING-only "
        "imports are exempt."
    )
    example_trigger = "from repro.core.dp import solve_rank    # caller layer"
    example_avoid = (
        "from repro.api import rank_architectures  # stable facade\n"
        "if TYPE_CHECKING:\n"
        "    from repro.core.dp import DPTables     # types-only: exempt"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if ctx.tree is None or not ctx.in_path(*SCOPED_PATHS):
            return
        type_checking_lines = self._type_checking_lines(ctx.tree)
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if self._is_internal(alias.name):
                        if node.lineno in type_checking_lines:
                            continue
                        yield self._flag(ctx, node, alias.name)
            elif isinstance(node, ast.ImportFrom):
                if node.lineno in type_checking_lines:
                    continue
                target = self._resolve(ctx, node)
                if target is None:
                    continue
                if self._is_internal(target):
                    yield self._flag(ctx, node, target)
                elif node.module is None or not node.module:
                    # ``from . import core`` / ``from .. import assign``:
                    # the imported *names* are the submodules.
                    for alias in node.names:
                        candidate = f"{target}.{alias.name}" if target else alias.name
                        if self._is_internal(candidate):
                            yield self._flag(ctx, node, candidate)

    # ------------------------------------------------------------------

    @staticmethod
    def _is_internal(module: str) -> bool:
        return any(
            module == p or module.startswith(p + ".") for p in INTERNAL_PACKAGES
        )

    @staticmethod
    def _resolve(ctx: FileContext, node: ast.ImportFrom) -> Optional[str]:
        """Absolute dotted target of a (possibly relative) from-import."""
        if node.level == 0:
            return node.module
        if ctx.module is None:
            return None
        # Package the importing module lives in: one level strips the
        # module name itself, each further level one package.
        parts = ctx.module.split(".")
        if len(parts) < node.level:
            return None
        base = parts[: len(parts) - node.level]
        if node.module:
            base = base + node.module.split(".")
        return ".".join(base)

    @staticmethod
    def _type_checking_lines(tree: ast.Module) -> Set[int]:
        """Line numbers inside ``if TYPE_CHECKING:`` bodies."""
        lines: Set[int] = set()
        for node in ast.walk(tree):
            if not isinstance(node, ast.If):
                continue
            test = node.test
            name = (
                test.id
                if isinstance(test, ast.Name)
                else test.attr
                if isinstance(test, ast.Attribute)
                else None
            )
            if name != "TYPE_CHECKING":
                continue
            for stmt in node.body:
                end = getattr(stmt, "end_lineno", stmt.lineno) or stmt.lineno
                lines.update(range(stmt.lineno, end + 1))
        return lines

    def _flag(self, ctx: FileContext, node: ast.AST, target: str) -> Finding:
        return ctx.finding(
            node,
            self.code,
            f"internal import '{target}' from a caller layer; go through "
            "the stable repro.api facade (or add a justified "
            "'# noqa: RPL004' if the facade genuinely cannot cover it)",
        )
