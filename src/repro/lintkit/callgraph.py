"""Module-level call graph and concurrency reachability (shared pre-pass).

The concurrency rules (RPL007-RPL008) all need the same whole-repo
view: *which functions can run on the asyncio event loop* and *which
functions can run inside a forked worker process*.  Neither property is
local to a file — a ``time.sleep`` three calls below an ``async def``
handler blocks the loop just as surely as one written inline — so this
module builds, once per lint run:

* a **function table** — every ``def``/``async def`` in the linted
  ``repro.*`` modules, keyed by dotted qualname
  (``repro.service.app.RankApp.dispatch``);
* a **call graph** — edges resolved through imports (absolute and
  relative), ``self.``/``cls.`` method calls, same-module names, class
  instantiation (edge to ``__init__``), and module-level variables with
  a class annotation (``_ACTIVE: Optional["_Armed"]`` makes
  ``_ACTIVE.fire(...)`` resolve to ``_Armed.fire``);
* an **event-loop-reachable** set — the closure over call edges from
  every ``async def`` (a sync function called from a coroutine runs on
  the loop);
* a **fork-reachable** set — the closure from worker entrypoints.
  Seeds are found syntactically: any function passed as a ``target=``
  or ``initializer=`` keyword (``multiprocessing.Process``, pool
  initializers).  ``.submit(...)`` payloads are not seeds: the only
  executor in ``src`` is the service's ``ThreadPoolExecutor``, whose
  jobs run in the parent process and never cross ``fork()``.

Work dispatched *through* an executor is naturally excluded from the
loop closure: a function reference passed to ``.submit`` is an
argument, not a call edge, so the loop closure stops exactly at the
executor boundary — which is the behaviour RPL007's "unless routed
through the executor" escape hatch requires.

The analysis is shared: every rule's ``prepare`` calls
:func:`analyze`, and a single-slot identity cache makes the first rule
pay for the build while the rest reuse it (the engine passes the same
``contexts`` list object to every rule in a run).
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from .context import FileContext

#: Module-level constructor calls whose result is a synchronisation /
#: OS handle that does not survive ``fork()`` intact (RPL008).
HANDLE_FACTORIES: Dict[str, str] = {
    "threading.Lock": "lock",
    "threading.RLock": "lock",
    "threading.Condition": "condition",
    "threading.Event": "event",
    "threading.Semaphore": "semaphore",
    "threading.BoundedSemaphore": "semaphore",
    "threading.Thread": "thread handle",
    "threading.local": "thread-local",
    "asyncio.new_event_loop": "event loop",
    "asyncio.get_event_loop": "event loop",
    "socket.socket": "socket",
}


class FunctionInfo:
    """One ``def``/``async def`` in the linted set."""

    __slots__ = ("qualname", "ctx", "node", "class_name", "is_async")

    def __init__(
        self,
        qualname: str,
        ctx: FileContext,
        node: ast.AST,
        class_name: Optional[str],
    ) -> None:
        self.qualname = qualname
        self.ctx = ctx
        self.node = node
        self.class_name = class_name
        self.is_async = isinstance(node, ast.AsyncFunctionDef)

    def walk(self) -> Iterator[ast.AST]:
        """This function's own nodes; nested ``def`` subtrees excluded
        (they are separate graph nodes, linked by a parent edge)."""
        stack: List[ast.AST] = list(self.node.body)  # type: ignore[attr-defined]
        while stack:
            node = stack.pop()
            yield node
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                stack.append(child)


class _ModuleInfo:
    """Per-module name-resolution state."""

    __slots__ = ("module", "imports", "var_types", "handle_vars")

    def __init__(self, module: str) -> None:
        self.module = module
        #: local alias -> absolute dotted target
        self.imports: Dict[str, str] = {}
        #: module-level variable -> class qualname (from annotation or
        #: a ``var = ClassName(...)`` assignment)
        self.var_types: Dict[str, str] = {}
        #: module-level variable -> handle kind (RPL008)
        self.handle_vars: Dict[str, str] = {}


def _resolve_relative(
    module: str, level: int, target: Optional[str], is_package: bool
) -> Optional[str]:
    """Absolute dotted target of a (possibly relative) from-import.

    In a package ``__init__`` the module name *is* the package, so one
    relative level resolves against the module itself rather than
    stripping it (``from .inject import x`` inside ``repro.faultkit``'s
    ``__init__`` means ``repro.faultkit.inject``).
    """
    if level == 0:
        return target
    drop = level - 1 if is_package else level
    parts = module.split(".")
    if len(parts) < drop:
        return None
    base = parts[: len(parts) - drop] if drop else parts
    if target:
        base = base + target.split(".")
    return ".".join(base)


def _annotation_name(node: ast.AST) -> Optional[str]:
    """Innermost dotted name of an annotation, unwrapping ``Optional[...]``
    / ``Final[...]`` subscripts and string ("forward") annotations."""
    while True:
        if isinstance(node, ast.Subscript):
            outer = _dotted(node.value)
            if outer and outer.split(".")[-1] in ("Optional", "Final", "ClassVar"):
                node = node.slice
                continue
            return outer
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                node = ast.parse(node.value, mode="eval").body
                continue
            except SyntaxError:
                return None
        return _dotted(node)


def _dotted(node: ast.AST) -> Optional[str]:
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


class CallGraph:
    """The shared analysis result.  Built by :func:`analyze`."""

    def __init__(self) -> None:
        self.functions: Dict[str, FunctionInfo] = {}
        self.class_names: Set[str] = set()
        self.edges: Dict[str, Set[str]] = {}
        #: seed qualname -> human-readable reason
        self.fork_seeds: Dict[str, str] = {}
        self.loop_seeds: Dict[str, str] = {}
        self.fork_reachable: Set[str] = set()
        self.loop_reachable: Set[str] = set()
        self._fork_parent: Dict[str, str] = {}
        self._loop_parent: Dict[str, str] = {}
        self._by_ctx: Dict[str, List[FunctionInfo]] = {}
        self._modinfo: Dict[str, _ModuleInfo] = {}

    # ------------------------------------------------------------------
    # Query API for rules
    # ------------------------------------------------------------------

    def functions_in(self, ctx: FileContext) -> List[FunctionInfo]:
        return self._by_ctx.get(ctx.rel, [])

    def module_handles(self, module: Optional[str]) -> Dict[str, str]:
        mi = self._modinfo.get(module or "")
        return mi.handle_vars if mi is not None else {}

    def absolute_name(self, ctx: FileContext, expr: ast.AST) -> Optional[str]:
        """Dotted name of ``expr`` with the head resolved through the
        module's imports (``sleep`` -> ``time.sleep``); names that are
        not imports pass through unchanged (``open`` -> ``open``)."""
        dotted = _dotted(expr)
        if dotted is None:
            return None
        mi = self._modinfo.get(ctx.module or "")
        if mi is None:
            return dotted
        head, _, rest = dotted.partition(".")
        target = mi.imports.get(head)
        if target is None:
            return dotted
        return f"{target}.{rest}" if rest else target

    def chain(self, qualname: str, kind: str) -> str:
        """``seed -> ... -> qualname`` evidence path for a finding."""
        parents = self._fork_parent if kind == "fork" else self._loop_parent
        seeds = self.fork_seeds if kind == "fork" else self.loop_seeds
        hops = [qualname]
        seen = {qualname}
        while hops[0] not in seeds and hops[0] in parents:
            nxt = parents[hops[0]]
            if nxt in seen:
                break
            seen.add(nxt)
            hops.insert(0, nxt)
        return " -> ".join(hops)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def resolve(self, fi: FunctionInfo, expr: ast.AST) -> Optional[str]:
        """Qualname of the known function or class ``expr`` refers to,
        in the scope of function ``fi`` — or ``None``."""
        mi = self._modinfo.get(fi.ctx.module or "")
        if mi is None:
            return None
        dotted = _dotted(expr)
        if dotted is None:
            return None
        return self._resolve_dotted(mi, fi, dotted)

    def _resolve_dotted(
        self, mi: _ModuleInfo, fi: Optional[FunctionInfo], dotted: str
    ) -> Optional[str]:
        parts = dotted.split(".")
        module = mi.module
        # self.method() / cls.method() inside a class body.
        if (
            fi is not None
            and len(parts) == 2
            and parts[0] in ("self", "cls")
            and fi.class_name
        ):
            candidate = f"{module}.{fi.class_name}.{parts[1]}"
            if candidate in self.functions:
                return candidate
            return None
        # Same-module name (function, class, or ClassName.method).
        candidate = f"{module}.{dotted}"
        if candidate in self.functions or candidate in self.class_names:
            return candidate
        # Through an import alias: the head maps to an absolute target.
        target = mi.imports.get(parts[0])
        if target is not None:
            candidate = ".".join([target] + parts[1:])
            resolved = self._chase_reexports(candidate)
            if resolved is not None:
                return resolved
        # A module-level variable with a known class type: var.method().
        if len(parts) == 2 and parts[0] in mi.var_types:
            candidate = f"{mi.var_types[parts[0]]}.{parts[1]}"
            if candidate in self.functions:
                return candidate
        return None

    def _chase_reexports(self, candidate: str, hops: int = 4) -> Optional[str]:
        """Resolve ``candidate`` through package re-exports.

        ``from ..faultkit import fault_point`` binds the *package's*
        name (``repro.faultkit.fault_point``); the definition lives at
        ``repro.faultkit.inject.fault_point`` via the ``__init__``'s
        own ``from .inject import fault_point``.  Walk those hops.
        """
        for _ in range(hops):
            if candidate in self.functions or candidate in self.class_names:
                return candidate
            parts = candidate.split(".")
            # Longest known-module prefix, then one re-exported name.
            for cut in range(len(parts) - 1, 0, -1):
                prefix = ".".join(parts[:cut])
                mi = self._modinfo.get(prefix)
                if mi is None:
                    continue
                target = mi.imports.get(parts[cut])
                if target is None:
                    return None
                candidate = ".".join([target] + parts[cut + 1 :])
                break
            else:
                return None
        return None

    def _callable_target(self, fi: FunctionInfo, expr: ast.AST) -> Optional[str]:
        """Resolve ``expr`` to a *function* qualname (classes resolve to
        their ``__init__`` when it exists, else ``None``)."""
        resolved = self.resolve(fi, expr)
        if resolved is None:
            return None
        if resolved in self.functions:
            return resolved
        init = f"{resolved}.__init__"
        return init if init in self.functions else None


def _collect(graph: CallGraph, contexts: Sequence[FileContext]) -> None:
    """Pass 1: function table, classes, imports, module-level handles."""
    for ctx in contexts:
        if ctx.tree is None or not ctx.in_module("repro"):
            continue
        module = ctx.module or ""
        is_package = ctx.path.name == "__init__.py"
        mi = graph._modinfo.setdefault(module, _ModuleInfo(module))
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname:
                        mi.imports[alias.asname] = alias.name
                    else:
                        head = alias.name.split(".")[0]
                        mi.imports[head] = head
            elif isinstance(node, ast.ImportFrom):
                base = _resolve_relative(
                    module, node.level, node.module, is_package
                )
                if base is None:
                    continue
                for alias in node.names:
                    local = alias.asname or alias.name
                    mi.imports[local] = f"{base}.{alias.name}" if base else alias.name

        bucket = graph._by_ctx.setdefault(ctx.rel, [])

        def visit(
            body: Sequence[ast.stmt],
            prefix: str,
            class_name: Optional[str],
            parent_fn: Optional[str],
        ) -> None:
            for stmt in body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qualname = f"{prefix}.{stmt.name}"
                    info = FunctionInfo(qualname, ctx, stmt, class_name)
                    graph.functions[qualname] = info
                    bucket.append(info)
                    if parent_fn is not None:
                        # A nested def runs (if at all) in its parent's
                        # execution context: over-approximate with an edge.
                        graph.edges.setdefault(parent_fn, set()).add(qualname)
                    visit(stmt.body, qualname, None, qualname)
                elif isinstance(stmt, ast.ClassDef):
                    graph.class_names.add(f"{prefix}.{stmt.name}")
                    visit(stmt.body, f"{prefix}.{stmt.name}", stmt.name, parent_fn)

        visit(ctx.tree.body, module, None, None)

        # Module-level variable types and fork-hostile handles.
        for stmt in ctx.tree.body:
            target: Optional[str] = None
            value: Optional[ast.AST] = None
            annotation: Optional[ast.AST] = None
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 and isinstance(
                stmt.targets[0], ast.Name
            ):
                target, value = stmt.targets[0].id, stmt.value
            elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                target, value, annotation = stmt.target.id, stmt.value, stmt.annotation
            if target is None:
                continue
            if annotation is not None:
                name = _annotation_name(annotation)
                if name is not None:
                    mi.var_types.setdefault(target, f"__unresolved__.{name}")
            if isinstance(value, ast.Call):
                dotted = _dotted(value.func)
                if dotted is not None:
                    mi.var_types.setdefault(target, f"__unresolved__.{dotted}")


def _finish_var_types(graph: CallGraph) -> None:
    """Resolve the deferred module-level variable types now that every
    class and import in the linted set is known."""
    for mi in graph._modinfo.values():
        for var, marker in list(mi.var_types.items()):
            if not marker.startswith("__unresolved__."):
                continue
            dotted = marker[len("__unresolved__."):]
            resolved = graph._resolve_dotted(mi, None, dotted)
            if resolved is not None and resolved in graph.class_names:
                mi.var_types[var] = resolved
            else:
                # Not a known class: a handle factory, or foreign.
                absolute = dotted
                head, _, rest = dotted.partition(".")
                target = mi.imports.get(head)
                if target is not None:
                    absolute = f"{target}.{rest}" if rest else target
                del mi.var_types[var]
                kind = HANDLE_FACTORIES.get(absolute)
                if kind is not None:
                    mi.handle_vars[var] = kind


def _link(graph: CallGraph) -> None:
    """Pass 2: call edges plus fork/loop seed detection."""
    for fi in graph.functions.values():
        if fi.is_async:
            graph.loop_seeds.setdefault(
                fi.qualname,
                f"async def at {fi.ctx.rel}:{fi.node.lineno}",  # type: ignore[attr-defined]
            )
        for node in fi.walk():
            if not isinstance(node, ast.Call):
                continue
            callee = graph._callable_target(fi, node.func)
            if callee is not None:
                graph.edges.setdefault(fi.qualname, set()).add(callee)
            for kw in node.keywords:
                if kw.arg not in ("target", "initializer"):
                    continue
                target = graph._callable_target(fi, kw.value)
                if target is not None:
                    graph.fork_seeds.setdefault(
                        target,
                        f"worker entrypoint ({kw.arg}=) at "
                        f"{fi.ctx.rel}:{kw.value.lineno}",
                    )


def _closure(
    graph: CallGraph, seeds: Dict[str, str]
) -> Tuple[Set[str], Dict[str, str]]:
    reachable: Set[str] = set(seeds)
    parents: Dict[str, str] = {}
    frontier = list(seeds)
    while frontier:
        current = frontier.pop()
        for callee in graph.edges.get(current, ()):
            if callee not in reachable:
                reachable.add(callee)
                parents[callee] = current
                frontier.append(callee)
    return reachable, parents


#: Single-slot cache: the engine hands the same ``contexts`` list to
#: every rule's ``prepare`` within one run.
_CACHE: List[Tuple[object, CallGraph]] = []


def analyze(contexts: Sequence[FileContext]) -> CallGraph:
    """Build (or fetch the cached) call graph for one lint run."""
    if _CACHE and _CACHE[0][0] is contexts:
        return _CACHE[0][1]
    graph = CallGraph()
    _collect(graph, contexts)
    _finish_var_types(graph)
    _link(graph)
    graph.fork_reachable, graph._fork_parent = _closure(graph, graph.fork_seeds)
    graph.loop_reachable, graph._loop_parent = _closure(graph, graph.loop_seeds)
    del _CACHE[:]
    _CACHE.append((contexts, graph))
    return graph
