"""RPL003 — nondeterminism in the solver paths.

The parity contract promises bit-identical ranks, witnesses, and
SolverStats between the NumPy DP kernel and its scalar test oracle,
and checkpoint/resume replays points assuming a pure function of the
inputs.  Both break the moment solver code consults a
wall clock, the process-global RNG, an unseeded RNG, or the hash-seed-
dependent iteration order of a ``set``.

Inside the scoped packages (``repro.core``, ``repro.assign``,
``repro.delay``, ``repro.wld``) this rule flags:

* wall-clock reads: ``time.time`` / ``time.time_ns`` /
  ``datetime.now`` / ``datetime.utcnow`` / ``datetime.today``
  (``time.monotonic`` / ``perf_counter`` stay legal — the runner uses
  them for *deadlines and metrics*, which never feed results);
* the process-global RNG: any ``random.<fn>()`` module call and any
  ``numpy.random.<fn>()`` legacy module call;
* unseeded RNG construction: ``random.Random()`` /
  ``numpy.random.default_rng()`` / ``numpy.random.RandomState()`` with
  no arguments, and ``random.SystemRandom`` anywhere;
* set-order dependence: iterating a set literal/comprehension or a
  direct ``set(...)`` call in a ``for`` loop, or materialising one via
  ``list(set(...))`` / ``tuple(set(...))`` without ``sorted``.

Seeded construction (``random.Random(seed)``,
``default_rng(seed)``) passes: determinism needs a pinned seed, not the
absence of randomness.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Set

from ..context import FileContext, Finding
from ..registry import Rule, register

#: Packages under the kernel-parity / resume-replay contract.
SCOPED_PACKAGES = ("repro.core", "repro.assign", "repro.delay", "repro.wld")

#: Module-level attribute calls that read the wall clock.
WALL_CLOCK = {
    ("time", "time"),
    ("time", "time_ns"),
    ("datetime", "now"),
    ("datetime", "utcnow"),
    ("datetime", "today"),
}

#: ``random`` module attributes that are RNG *constructors*, judged by
#: their arguments rather than banned outright.
RNG_CONSTRUCTORS = {"Random"}


@register
class DeterminismRule(Rule):
    code = "RPL003"
    name = "determinism"
    description = (
        "Solver packages (core/, assign/, delay/, wld/) must be pure "
        "functions of their inputs: no wall-clock reads, no process-"
        "global or unseeded RNGs, no set-iteration-order dependence. "
        "Inject a seeded random.Random / numpy Generator instead."
    )
    example_trigger = (
        "start = random.choice(candidates)   # process-global RNG\n"
        "stamp = time.time()                 # wall clock in a solver"
    )
    example_avoid = (
        "def anneal(candidates, rng: random.Random):\n"
        "    start = rng.choice(candidates)  # caller-seeded, replayable"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if ctx.tree is None or not ctx.in_module(*SCOPED_PACKAGES):
            return
        from_imports = self._wall_clock_from_imports(ctx.tree)
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                yield from self._check_call(ctx, node, from_imports)
            elif isinstance(node, ast.For):
                finding = self._set_iteration(ctx, node.iter)
                if finding is not None:
                    yield finding
            elif isinstance(node, ast.Attribute):
                if node.attr == "SystemRandom" and self._base(node) == "random":
                    yield ctx.finding(
                        node,
                        self.code,
                        "random.SystemRandom is nondeterministic by design; "
                        "inject a seeded random.Random instead",
                    )

    # ------------------------------------------------------------------

    @staticmethod
    def _wall_clock_from_imports(tree: ast.Module) -> Set[str]:
        """Local names bound to wall-clock callables via ``from`` imports."""
        names: Set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "time":
                for alias in node.names:
                    if alias.name in ("time", "time_ns"):
                        names.add(alias.asname or alias.name)
        return names

    @staticmethod
    def _base(node: ast.Attribute) -> Optional[str]:
        if isinstance(node.value, ast.Name):
            return node.value.id
        return None

    @classmethod
    def _attr_chain(cls, node: ast.AST) -> Optional[str]:
        return Rule.dotted_name(node)

    def _check_call(
        self, ctx: FileContext, call: ast.Call, from_imports: Set[str]
    ) -> Iterator[Finding]:
        func = call.func
        unseeded = not call.args and not call.keywords

        if isinstance(func, ast.Name) and func.id in from_imports:
            yield ctx.finding(
                call, self.code,
                f"wall-clock read '{func.id}()' in solver code; results "
                "must be a pure function of the inputs",
            )
            return
        chain = self._attr_chain(func)
        if chain is None:
            return
        parts = chain.split(".")

        # time.time() / datetime.datetime.now() / datetime.now()
        if tuple(parts[-2:]) in WALL_CLOCK:
            yield ctx.finding(
                call, self.code,
                f"wall-clock read '{chain}()' in solver code; results "
                "must be a pure function of the inputs "
                "(time.monotonic/perf_counter are fine for deadlines)",
            )
            return

        # random.<anything>: module-level global RNG, or Random()/SystemRandom.
        if parts[0] == "random" and len(parts) == 2:
            attr = parts[1]
            if attr == "SystemRandom":
                return  # flagged at the Attribute node
            if attr in RNG_CONSTRUCTORS:
                if unseeded:
                    yield ctx.finding(
                        call, self.code,
                        f"unseeded '{chain}()' in solver code; construct "
                        "it with an explicit seed (or accept an injected "
                        "instance)",
                    )
                return
            yield ctx.finding(
                call, self.code,
                f"process-global RNG call '{chain}()' in solver code; "
                "inject a seeded random.Random instead",
            )
            return

        # numpy.random.* — legacy global RNG and unseeded constructors.
        if len(parts) >= 3 and parts[-3] in ("np", "numpy") and parts[-2] == "random":
            attr = parts[-1]
            if attr in ("default_rng", "RandomState", "Generator", "SeedSequence"):
                if unseeded:
                    yield ctx.finding(
                        call, self.code,
                        f"unseeded '{chain}()' in solver code; pass an "
                        "explicit seed",
                    )
                return
            yield ctx.finding(
                call, self.code,
                f"numpy global-RNG call '{chain}()' in solver code; use a "
                "seeded numpy.random.Generator instead",
            )
            return

        # list(set(...)) / tuple(set(...)) without sorted().
        if isinstance(func, ast.Name) and func.id in ("list", "tuple"):
            if len(call.args) == 1 and self._is_set_expr(call.args[0]):
                yield ctx.finding(
                    call, self.code,
                    f"{func.id}(set(...)) materialises hash-order; wrap in "
                    "sorted(...) to pin a deterministic order",
                )

    @staticmethod
    def _is_set_expr(node: ast.AST) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("set", "frozenset")
        ):
            return True
        return False

    def _set_iteration(self, ctx: FileContext, iter_expr: ast.AST) -> Optional[Finding]:
        if self._is_set_expr(iter_expr):
            return ctx.finding(
                iter_expr, self.code,
                "iterating a set in solver code depends on hash order; "
                "iterate sorted(...) instead",
            )
        return None
