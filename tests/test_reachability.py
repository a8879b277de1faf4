"""Every function and module-level constant in ``src/repro`` must be
reachable from a product path.

A product path is the ``ia-rank`` CLI (and the ``python -m`` entry points
that wrap it or the linter), the :mod:`repro.api` facade, the ``bench/``
workloads, the paper experiments in ``benchmarks/``, the ``examples/``
scripts, and the README's Python quickstart.  Everything reachable from
them is found by name: a reached function reaches every def or method
whose name it mentions (as a name, an attribute, or an identifier-shaped
string, for ``getattr`` dispatch).  A module-level constant (an
upper-case name bound at the top of a module) is reached the same way,
and once reached, the names its value mentions are.  Other module-level
code runs on import, so the names it mentions are roots too.  Matching
by bare name can merge two defs that share a name, so the pass can miss
dead code but never flags live code.

A def or constant that only ``tests/`` reaches belongs in ``tests/`` (as
an oracle or a harness) or nowhere; the few kept in ``src`` are listed
in ``ALLOWED`` with the test that needs them.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Set, Tuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"

ENTRY_POINTS = ("main",)  # repro.cli:main and repro.lintkit.cli:main
ROOT_DIRS = ("bench", "benchmarks", "examples")

#: Defs and constants a test needs although no product path reads them:
#: name -> the test.
ALLOWED: Dict[str, str] = {
    "FaultSchedule.seeded": "tests/runner/test_chaos.py (harness: seeded chaos runs)",
    "FaultSchedule.to_json": "tests/faultkit/test_schedule.py (harness: from_json round trip)",
    "uninstall": "tests/faultkit/test_inject.py (harness: disarms between tests)",
    "active_schedule": "tests/faultkit/test_inject.py (harness: reads the armed state)",
    "deterministic_counters": "tests/obs/test_parity.py (harness: jobs=1 vs jobs=2 parity)",
    "node_to_dict": "tests/test_cli.py (harness: writes --node-file inputs)",
    "save_node": "tests/test_cli.py (harness: writes --node-file inputs)",
    "load_wld_csv": "tests/test_cli.py (harness: reads ia-rank wld --out)",
    "SITES": "tests/faultkit/test_fault_sites.py (the fault-site registry it checks)",
    "WORKER_SITES": "tests/faultkit/test_fault_sites.py (the fault-site registry it checks)",
    "FILE_SITES": "tests/faultkit/test_fault_sites.py (the fault-site registry it checks)",
    "NONDETERMINISTIC_PREFIXES": "tests/obs/test_parity.py (read by deterministic_counters)",
    "REQUEST_TYPES": "tests/service/test_schema_golden.py (harness: every request type)",
    "LOW_K_36": "tests/tech/test_materials.py (public material preset it pins)",
    "LOW_K_28": "tests/tech/test_materials.py (public material preset it pins)",
    "METAL_LAYER_COUNTS": "tests/tech/test_presets.py (pins Table 3's layer counts)",
}

#: A module-level constant: an upper-case name bound once at the top.
_CONSTANT = re.compile(r"^_?[A-Z][A-Z0-9_]*$")
#: Called by the standard library, never by name in this repo.
_IMPLICIT = re.compile(r"^(__\w+__|visit_\w+|generic_visit|do_[A-Z]+|log_message)$")
_IDENT = re.compile(r"^[A-Za-z_]\w*$")


def _refs(node: ast.AST) -> Set[str]:
    """Names ``node`` mentions: names, attributes, identifier strings."""
    names: Set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            if _IDENT.match(sub.value):
                names.add(sub.value)
        elif isinstance(sub, ast.alias):
            names.add((sub.asname or sub.name).split(".")[-1])
    return names


def _constant(stmt: ast.stmt) -> Optional[Tuple[str, ast.AST]]:
    """``(name, value)`` of a module-level ``NAME = value`` constant."""
    if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
        target, value = stmt.targets[0], stmt.value
    elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
        target, value = stmt.target, stmt.value
    else:
        return None
    if isinstance(target, ast.Name) and _CONSTANT.match(target.id):
        return target.id, value
    return None


def _module_level_refs(tree: ast.Module) -> Set[str]:
    """Names mentioned by code that runs when the module is imported,
    apart from constants' values: those count once the constant is
    read."""
    names: Set[str] = set()

    def statements(body: Iterable[ast.stmt], top: bool) -> None:
        for stmt in body:
            if isinstance(stmt, (ast.Import, ast.ImportFrom)):
                continue
            if top and _constant(stmt):
                continue
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for expr in stmt.decorator_list + stmt.args.defaults:
                    names.update(_refs(expr))
            elif isinstance(stmt, ast.ClassDef):
                for expr in stmt.decorator_list + stmt.bases:
                    names.update(_refs(expr))
                statements(stmt.body, False)
            elif isinstance(stmt, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets
            ):
                continue
            else:
                names.update(_refs(stmt))

    statements(tree.body, True)
    return names


def _defs(tree: ast.Module) -> Dict[str, ast.AST]:
    """Top-level functions, class methods and constants, keyed
    ``name``/``Class.name``; a constant's node is its value."""
    found: Dict[str, ast.AST] = {}
    for stmt in tree.body:
        constant = _constant(stmt)
        if constant:
            found[constant[0]] = constant[1]
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found[stmt.name] = stmt
        elif isinstance(stmt, ast.ClassDef):
            for item in stmt.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    found[f"{stmt.name}.{item.name}"] = item
    return found


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def unreached_defs() -> List[str]:
    """``module:qualname`` of every src def or constant no product path reaches."""
    defs: Dict[str, List[ast.AST]] = {}
    where: Dict[int, str] = {}
    aliases: Dict[str, Set[str]] = {}  # ``import x as y``: y -> {x}
    reached: Set[str] = set(ENTRY_POINTS)
    for path in sorted(SRC.rglob("*.py")):
        tree = _parse(path)
        module = path.relative_to(SRC.parent).with_suffix("").as_posix()
        reached |= _module_level_refs(tree)
        if path.name == "__main__.py":
            reached |= _refs(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.alias) and node.asname:
                aliases.setdefault(node.asname, set()).add(node.name.split(".")[-1])
        for qualname, node in _defs(tree).items():
            defs.setdefault(qualname.rsplit(".", 1)[-1], []).append(node)
            where[id(node)] = f"{module}:{qualname}"
    for path in [SRC / "api.py", *sorted((SRC / "service").glob("*.py"))]:
        reached |= _refs(_parse(path))
    for directory in ROOT_DIRS:
        for path in sorted((ROOT / directory).rglob("*.py")):
            reached |= _refs(_parse(path))
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    for block in re.findall(r"```python\n(.*?)```", readme, flags=re.S):
        reached |= _refs(ast.parse(block))

    seen: Set[str] = set()
    pending = [name for name in defs if _IMPLICIT.match(name)] + sorted(reached)
    while pending:
        name = pending.pop()
        if name in seen:
            continue
        seen.add(name)
        pending.extend(aliases.get(name, ()))
        for node in defs.get(name, ()):
            pending.extend(_refs(node) - seen)

    return sorted(
        where[id(node)] for name, nodes in defs.items() if name not in seen for node in nodes
    )


def test_every_src_def_is_reached_from_a_product_path():
    missing = [
        label for label in unreached_defs() if label.split(":", 1)[1] not in ALLOWED
    ]
    assert not missing, (
        "defined in src/repro but reached by no product path (move it to "
        "tests/ as an oracle, delete it, or list it in ALLOWED with the test "
        "that needs it):\n  " + "\n  ".join(missing)
    )


def test_allowlist_names_only_unreached_defs():
    unreached = {label.split(":", 1)[1] for label in unreached_defs()}
    assert set(ALLOWED) <= unreached, sorted(set(ALLOWED) - unreached)
