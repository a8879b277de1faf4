"""Repo-specific static analysis (``python -m repro.lintkit``).

The rank metric's credibility rests on invariants the test suite can
only sample: all arithmetic is SI-internal with unit conversions
confined to :mod:`repro.units`, the NumPy DP kernel must stay
bit-identical to its scalar test oracle, and callers go through the
:mod:`repro.api` facade rather than ``repro.core`` internals.  This
package checks those invariants *statically*, at commit time, instead
of letting them surface as Table 4 divergence.

Architecture:

* :mod:`repro.lintkit.registry` — rule-plugin registry; each rule is a
  class with a stable ``RPLnnn`` code registered via
  :func:`~repro.lintkit.registry.register`.
* :mod:`repro.lintkit.context` — per-file parse state
  (:class:`~repro.lintkit.context.FileContext`) and the
  :class:`~repro.lintkit.context.Finding` record rules emit.
* :mod:`repro.lintkit.engine` — file collection, rule execution,
  ``# noqa`` suppression, deterministic ordering.
* :mod:`repro.lintkit.callgraph` — shared whole-repo pre-pass: a
  module-level call graph with *fork-reachable* (``target=`` /
  ``initializer=`` worker entrypoints) and *event-loop-reachable*
  (``async def``) closures, consumed by the concurrency rules.
* :mod:`repro.lintkit.reporters` — text and JSON output.
* :mod:`repro.lintkit.rules` — the shipped rules (RPL001–RPL008,
  RPL011).

There is no baseline file: a finding is either fixed or carries a
justified ``# noqa: RPLnnn``.  The fault-site registry is not a lint
rule either: :data:`repro.faultkit.schedule.SITES` is the only list,
and ``tests/faultkit/test_fault_sites.py`` checks it against the
``fault_point(...)`` calls and every chaos-schedule glob.

Shipped rules:

========  ==============================================================
RPL001    bare SI conversion literal outside ``repro.units``
RPL002    unit-suffix dimension mismatch at a call site
RPL003    nondeterminism in solver paths (wall clock / global RNG /
          unseeded RNG / set iteration order)
RPL004    facade boundary: ``repro.core`` / ``repro.assign`` internals
          imported from caller layers (``cli.py``, ``service/``,
          ``tools/``, ``benchmarks/``) instead of ``repro.api``
RPL005    unguarded metrics publishing in hot paths (use the guarded
          ``repro.obs`` helpers)
RPL006    swallowed exceptions in recovery paths (``runner/``,
          ``faultkit/``)
RPL007    blocking calls in event-loop-reachable code (route heavy
          work through the solve executor)
RPL008    fork-hostile state crossing the ``fork()`` boundary
          (module-level handles, non-plain-data worker args)
RPL011    cooperative deadline coverage in ``repro.core`` /
          ``repro.assign`` loops
========  ==============================================================

``--explain RPLnnn`` prints any rule's full rationale with
trigger/avoid examples.
"""

from __future__ import annotations

from .context import FileContext, Finding
from .engine import collect_files, lint_paths
from .registry import Rule, all_rules, get_rule, register

__all__ = [
    "FileContext",
    "Finding",
    "Rule",
    "all_rules",
    "collect_files",
    "get_rule",
    "lint_paths",
    "register",
]
