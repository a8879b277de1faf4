"""RPL008 — fork-safety of worker payloads.

The batch runner's worker pool uses the ``fork`` start method on
purpose (warm caches arrive copy-on-write), and that choice has a
contract: state that crosses the ``fork()`` boundary must be *plain
data*.  A ``threading.Lock`` held
by a parent thread at fork time is permanently stuck in the child; a
``Thread`` handle refers to a thread that does not exist after fork;
an event loop or socket duplicated into a worker is shared OS state
two processes now race on.  These bugs are timing-dependent and
near-impossible to reproduce — exactly the kind of invariant a static
gate should hold instead of a reviewer's memory.

Using the shared call-graph pre-pass, this rule flags, inside
*fork-reachable* functions (the closure from ``Process(target=...)``
/ pool-``initializer=`` seeds; ``.submit`` payloads go to the service's
thread pool and are not seeds):

* reads of module-level variables bound to lock / thread / event-loop
  / socket handles (``_LOCK = threading.Lock()`` at module scope, used
  in a worker: the parent's handle, captured over fork);
* worker *entrypoint* parameters annotated with non-picklable,
  fork-hostile types (``threading.*``, ``asyncio.*``, ``socket.*``,
  ``concurrent.futures.*``, ``IO``/``TextIO``/``BinaryIO``) — worker
  entry args must be plain-data shapes.

Creating a *fresh* lock inside the worker is fine (it is the child's
own), and plain-data module globals (caches, flags) are legal by
design — fork gives each worker an independent copy-on-write copy.
The hazard this rule polices is synchronisation and OS handles, which
are precisely the objects whose post-fork semantics are undefined.

A module that registers an ``os.register_at_fork(after_in_child=...)``
handler has taken explicit fork ownership of its handles (the stdlib
``logging`` discipline: replace the lock in the child) and is exempt
from the module-handle check — ``repro.obs.trace`` does exactly this.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from ..callgraph import analyze, CallGraph, _annotation_name
from ..context import FileContext, Finding
from ..registry import Rule, register

#: Annotation prefixes that make a worker-entry parameter fork-hostile.
FORBIDDEN_PARAM_PREFIXES = (
    "threading.",
    "asyncio.",
    "socket.",
    "concurrent.futures.",
)

#: Bare annotation names that are fork-hostile regardless of module.
FORBIDDEN_PARAM_NAMES = frozenset({
    "Lock", "RLock", "Condition", "Event", "Semaphore", "BoundedSemaphore",
    "Thread", "AbstractEventLoop", "Executor", "ThreadPoolExecutor",
    "IO", "TextIO", "BinaryIO",
})


@register
class ForkSafetyRule(Rule):
    code = "RPL008"
    name = "fork-safety"
    description = (
        "Fork-reachable code (worker entrypoints and everything they "
        "call) must not capture module-level lock/thread/loop/socket "
        "handles, and worker-entry parameters must be plain-data "
        "picklable shapes — handles crossing fork() have undefined "
        "semantics."
    )
    example_trigger = (
        "_LOCK = threading.Lock()          # module scope, pre-fork\n"
        "def _worker_main(task: threading.Event):  # non-plain-data arg\n"
        "    with _LOCK:                   # parent's handle, post-fork\n"
        "        ..."
    )
    example_avoid = (
        "def _worker_main(init_blob: bytes, parent_pid: int):\n"
        "    lock = threading.Lock()       # child-local, created post-fork\n"
        "    payload = pickle.loads(init_blob)"
    )

    def __init__(self) -> None:
        self._graph: Optional[CallGraph] = None

    def prepare(self, contexts) -> None:  # type: ignore[no-untyped-def]
        self._graph = analyze(contexts)

    @staticmethod
    def _owns_fork(ctx: FileContext) -> bool:
        """Whether the module registers an after-fork child handler."""
        for node in ast.walk(ctx.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "register_at_fork"
                and any(kw.arg == "after_in_child" for kw in node.keywords)
            ):
                return True
        return False

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        graph = self._graph
        if graph is None or ctx.tree is None or not ctx.in_module("repro"):
            return
        handles = graph.module_handles(ctx.module)
        if handles and self._owns_fork(ctx):
            handles = {}
        for fi in graph.functions_in(ctx):
            if fi.qualname not in graph.fork_reachable:
                continue
            if fi.qualname in graph.fork_seeds:
                yield from self._check_entry_params(graph, ctx, fi)
            if not handles:
                continue
            for node in fi.walk():
                if (
                    isinstance(node, ast.Name)
                    and isinstance(node.ctx, ast.Load)
                    and node.id in handles
                ):
                    yield ctx.finding(
                        node,
                        self.code,
                        f"module-level {handles[node.id]} '{node.id}' used in "
                        f"fork-reachable {fi.qualname} "
                        f"(via {graph.chain(fi.qualname, 'fork')}); the "
                        "parent's handle has undefined semantics after "
                        "fork() — create it inside the worker instead",
                    )

    def _check_entry_params(
        self, graph: CallGraph, ctx: FileContext, fi
    ) -> Iterator[Finding]:  # type: ignore[no-untyped-def]
        args = fi.node.args
        for arg in args.posonlyargs + args.args + args.kwonlyargs:
            if arg.annotation is None:
                continue
            name = _annotation_name(arg.annotation)
            if name is None:
                continue
            absolute = graph.absolute_name(ctx, ast.parse(name, mode="eval").body)
            bare = name.split(".")[-1]
            hostile = bare in FORBIDDEN_PARAM_NAMES or (
                absolute is not None
                and absolute.startswith(FORBIDDEN_PARAM_PREFIXES)
            )
            if hostile:
                yield ctx.finding(
                    arg,
                    self.code,
                    f"worker entrypoint {fi.qualname} "
                    f"({graph.fork_seeds[fi.qualname]}) takes parameter "
                    f"'{arg.arg}: {name}' — worker entry args must be "
                    "plain-data picklable shapes, not synchronisation/OS "
                    "handles",
                )
