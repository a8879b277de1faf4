"""Rule-plugin registry.

A rule is a class with a stable ``code`` (``RPLnnn``), a short ``name``,
a one-paragraph ``description`` (rendered by ``--list-rules`` and the
docs), and a ``check(ctx)`` generator yielding
:class:`~repro.lintkit.context.Finding` objects.  Rules that need a
whole-repo view first (e.g. RPL002's signature database) override
``prepare(contexts)``, which the engine calls once per run before any
``check``.

Rules register themselves at import time::

    from ..registry import Rule, register

    @register
    class MyRule(Rule):
        code = "RPL042"
        name = "my-rule"
        description = "What invariant this protects and why."

        def check(self, ctx):
            ...
            yield ctx.finding(node, self.code, "message")

The engine instantiates a fresh rule object per run, so per-run state
(signature databases, caches) lives on ``self`` without leaking between
invocations.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Type

from .context import FileContext, Finding


class Rule:
    """Base class for lint rules; subclass and :func:`register`."""

    code: str = ""
    name: str = ""
    description: str = ""

    def prepare(self, contexts: Sequence[FileContext]) -> None:
        """Whole-repo pre-pass hook (default: nothing)."""

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        """Yield findings for one file (default: none)."""
        return iter(())

    # ------------------------------------------------------------------
    # Shared AST helpers
    # ------------------------------------------------------------------

    @staticmethod
    def dotted_name(node: ast.AST) -> Optional[str]:
        """``a.b.c`` for a Name/Attribute chain, else ``None``."""
        parts: List[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if isinstance(node, ast.Name):
            parts.append(node.id)
            return ".".join(reversed(parts))
        return None


_RULES: Dict[str, Type[Rule]] = {}


def register(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to the registry (unique code)."""
    if not cls.code:
        raise ValueError(f"rule {cls.__name__} has no code")
    existing = _RULES.get(cls.code)
    if existing is not None and existing is not cls:
        raise ValueError(
            f"duplicate rule code {cls.code}: {existing.__name__} and {cls.__name__}"
        )
    _RULES[cls.code] = cls
    return cls


def _load_builtin_rules() -> None:
    from . import rules as _rules  # noqa: F401  (import registers rules)


def all_rules() -> List[Type[Rule]]:
    """Every registered rule class, sorted by code."""
    _load_builtin_rules()
    return [_RULES[code] for code in sorted(_RULES)]


def select_rules(
    select: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
) -> List[Rule]:
    """Instantiate the active rule set for one run.

    ``select`` keeps only the named codes; ``ignore`` then drops codes.
    Unknown codes raise ``KeyError`` so typos fail loudly.
    """
    _load_builtin_rules()
    chosen = sorted(_RULES)
    if select is not None:
        wanted = {c.upper() for c in select}
        unknown = wanted - set(chosen)
        if unknown:
            raise KeyError(f"unknown rule code(s): {', '.join(sorted(unknown))}")
        chosen = [c for c in chosen if c in wanted]
    if ignore is not None:
        dropped = {c.upper() for c in ignore}
        unknown = dropped - set(_RULES)
        if unknown:
            raise KeyError(f"unknown rule code(s): {', '.join(sorted(unknown))}")
        chosen = [c for c in chosen if c not in dropped]
    return [_RULES[code]() for code in chosen]
