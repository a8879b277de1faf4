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
* :mod:`repro.lintkit.baseline` — grandfathered-violation baseline so
  the CI gate is strict on new code from day one.
* :mod:`repro.lintkit.callgraph` — shared whole-repo pre-pass: a
  module-level call graph with *fork-reachable* (worker entrypoints,
  ``.submit`` payloads) and *event-loop-reachable* (``async def``)
  closures, consumed by the concurrency rules.
* :mod:`repro.lintkit.reporters` — text and JSON output.
* :mod:`repro.lintkit.rules` — the shipped rules (RPL001–RPL011).

Shipped rules:

========  ==============================================================
RPL001    bare SI conversion literal outside ``repro.units``
RPL002    unit-suffix dimension mismatch at a call site
RPL003    nondeterminism in solver paths (wall clock / global RNG /
          unseeded RNG / set iteration order)
RPL004    facade boundary: ``repro.core`` / ``repro.assign`` internals
          imported from caller layers instead of ``repro.api``
RPL005    unguarded metrics publishing in hot paths (use the guarded
          ``repro.obs`` helpers)
RPL006    swallowed exceptions in recovery paths (``runner/``,
          ``faultkit/``)
RPL007    blocking calls in event-loop-reachable code (route heavy
          work through the solve executor)
RPL008    fork-hostile state crossing the ``fork()`` boundary
          (module-level handles, non-plain-data worker args)
RPL010    fault-site registry: literal ``fault_point`` sites, chaos
          globs must match a registered site (``--emit-fault-sites``)
RPL011    cooperative deadline coverage in ``repro.core`` /
          ``repro.assign`` loops
========  ==============================================================

``--explain RPLnnn`` prints any rule's full rationale with
trigger/avoid examples.
"""

from __future__ import annotations

from .baseline import Baseline
from .context import FileContext, Finding
from .engine import collect_files, lint_paths
from .registry import Rule, all_rules, get_rule, register

__all__ = [
    "Baseline",
    "FileContext",
    "Finding",
    "Rule",
    "all_rules",
    "collect_files",
    "get_rule",
    "lint_paths",
    "register",
]
