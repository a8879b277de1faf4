"""Cross-point precompute cache: shared geometry and WLD work.

Sweeps, corner sign-off, and architecture search evaluate hundreds of
:class:`~repro.core.problem.RankProblem` variants that differ in one
knob but share the expensive precomputation underneath — the coarsened
(bunched/binned) WLD is identical across every point of a clock or
repeater-fraction sweep, and repeated evaluations of the *same* problem
(retries after a deadline, repeated corners, search revisits) rebuild
identical :class:`~repro.assign.tables.AssignmentTables` from scratch.

:class:`PrecomputeCache` is a small keyed LRU cache over both stages:

* ``coarsened`` — ``(WLD fingerprint, bunch_size, max_groups)`` →
  coarse WLD + rank error bound,
* ``tables`` — ``(problem fingerprint, bunch_size, max_groups)`` →
  assignment tables + rank error bound.

Keys are content fingerprints (SHA-256 over the pickled object), so two
problems that are equal by value share an entry no matter how they were
constructed.  The cache is a plain picklable object: the batch runner
pickles a parent-warmed cache into the pool payload that every worker
loads at startup, so parallel sweep workers start with the shared
coarse WLD already in hand.

Hit/miss counters per stage make sweep-level reuse observable; the
benchmark (``bench/``) reports them as
``precompute.{coarsened,tables}_hit_ratio``.
"""

from __future__ import annotations

import hashlib
import pickle
from collections import OrderedDict
from typing import Dict, Optional, Tuple

from ..faultkit.inject import fault_point
from ..obs.metrics import inc as _obs_inc

#: Default number of cached entries (coarse WLDs + tables combined).
DEFAULT_CACHE_ENTRIES = 32


def fingerprint_bytes(data: bytes) -> str:
    """SHA-256 hex digest of raw bytes.

    The one digest primitive every content-addressed key in the
    library shares: the pickle-based :func:`fingerprint` below and the
    wire-schema request fingerprints (:mod:`repro.schema`) that key the service's
    memoization cache.
    """
    return hashlib.sha256(data).hexdigest()


def fingerprint(obj: object) -> str:
    """Content fingerprint: SHA-256 over the object's pickle.

    Deterministic for the value-type dataclasses and numpy arrays the
    library is built from: equal values constructed the same way yield
    equal bytes.  A differing fingerprint for equal values is safe — it
    only costs a cache miss, never a wrong hit.
    """
    return fingerprint_bytes(
        pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    )


class PrecomputeCache:
    """Keyed LRU cache for coarsened WLDs and assignment tables.

    Parameters
    ----------
    max_entries:
        Cap on stored entries across both stages; least-recently-used
        entries are evicted first.  ``0`` disables storage (every call
        recomputes; counters still track misses).

    Notes
    -----
    The cache is deliberately *not* thread-safe or process-shared: each
    batch evaluator owns one, and the parallel runner pickles the whole
    evaluator (cache included) to each worker once, after which workers
    populate their copies independently.
    """

    def __init__(self, max_entries: int = DEFAULT_CACHE_ENTRIES) -> None:
        if max_entries < 0:
            raise ValueError(
                f"max_entries must be >= 0, got {max_entries!r}"
            )
        self.max_entries = max_entries
        self._store: "OrderedDict[tuple, object]" = OrderedDict()
        self._hits: Dict[str, int] = {"coarsened": 0, "tables": 0}
        self._misses: Dict[str, int] = {"coarsened": 0, "tables": 0}
        self._evictions = 0

    # ------------------------------------------------------------------
    # Cached stages
    # ------------------------------------------------------------------

    def coarsened(
        self,
        problem,
        bunch_size: Optional[int] = None,
        max_groups: Optional[int] = None,
    ) -> Tuple[object, int]:
        """The problem's coarsened WLD and rank error bound, cached.

        Keyed on the *WLD* fingerprint, so every point of a sweep that
        keeps the WLD fixed (C, R, K, M — all of Table 4) shares one
        entry.
        """
        fault_point("precompute.coarsen")
        key = ("coarsened", fingerprint(problem.wld), bunch_size, max_groups)
        entry = self._get("coarsened", key)
        if entry is None:
            entry = problem.coarsened_wld(
                bunch_size=bunch_size, max_groups=max_groups
            )
            self._put(key, entry)
        return entry

    def tables(
        self,
        problem,
        bunch_size: Optional[int] = None,
        max_groups: Optional[int] = None,
    ) -> Tuple[object, int]:
        """The problem's assignment tables and error bound, cached.

        Keyed on the full problem fingerprint: only value-identical
        problems share tables (geometry, die, WLD, targets all agree).
        The coarse WLD underneath is resolved through :meth:`coarsened`,
        so a tables *miss* still reuses a shared coarse WLD hit.
        """
        fault_point("precompute.tables")
        key = ("tables", fingerprint(problem), bunch_size, max_groups)
        entry = self._get("tables", key)
        if entry is None:
            coarse, error_bound = self.coarsened(
                problem, bunch_size=bunch_size, max_groups=max_groups
            )
            entry = (problem.tables_on(coarse), error_bound)
            self._put(key, entry)
        return entry

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def stats(self) -> Dict[str, Dict[str, int]]:
        """Per-stage hit/miss counters, evictions, and entry count."""
        return {
            "hits": dict(self._hits),
            "misses": dict(self._misses),
            "evictions": self._evictions,
            "entries": {"current": len(self._store), "max": self.max_entries},
        }

    def clear(self) -> None:
        """Drop every entry and reset the counters."""
        self._store.clear()
        self._evictions = 0
        for counters in (self._hits, self._misses):
            for stage in counters:
                counters[stage] = 0

    # ------------------------------------------------------------------
    # LRU plumbing
    # ------------------------------------------------------------------

    def _get(self, stage: str, key: tuple):
        entry = self._store.get(key)
        if entry is not None:
            self._store.move_to_end(key)
            self._hits[stage] += 1
            _obs_inc(f"precompute.{stage}.hits")
            return entry
        self._misses[stage] += 1
        _obs_inc(f"precompute.{stage}.misses")
        return None

    def _put(self, key: tuple, entry: object) -> None:
        if self.max_entries == 0:
            return
        self._store[key] = entry
        self._store.move_to_end(key)
        while len(self._store) > self.max_entries:
            self._store.popitem(last=False)
            self._evictions += 1
            _obs_inc("precompute.evictions")

