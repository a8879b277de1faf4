"""Experiment persistence: JSON round-trips for results and sweeps.

Reproduction runs are cheap but not free; persisting results lets the
benchmark harness, notebooks and CI diff runs against recorded ones.
The format is versioned, flat JSON — stable across refactors of the
in-memory dataclasses.

All writes are **atomic**: content goes to ``<path>.tmp`` and is moved
into place with :func:`os.replace`, so a crash or SIGTERM mid-write can
never leave a truncated file behind.  This is what makes the runner's
incremental checkpoints (:mod:`repro.runner.checkpoint`) safe to resume
from after an interrupted run.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Union

from ..analysis.sweep import SweepPoint, SweepResult
from ..core.dp import SolverStats, WitnessSegment
from ..core.rank import RankResult
from ..errors import ReproError, SchemaError
from ..runner.journal import PointFailure
from ..schema import REQUEST_TYPES

PathLike = Union[str, Path]

#: Format version written into every file.
FORMAT_VERSION = 1


def write_json_atomic(payload: dict, path: PathLike) -> None:
    """Serialize ``payload`` to ``path`` via temp file + ``os.replace``.

    The temp file lives next to the target (same filesystem) so the
    final rename is atomic; readers either see the old complete file or
    the new complete file, never a partial write.
    """
    target = Path(path)
    tmp = target.with_name(target.name + ".tmp")
    try:
        with open(tmp, "w") as handle:
            json.dump(payload, handle, indent=2)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, target)
    finally:
        if tmp.exists():
            tmp.unlink()


def read_versioned_json(path: PathLike, expected_format: str) -> dict:
    """Load a versioned JSON file, validating format tag and version.

    Raises :class:`ReproError` (never ``KeyError``/``JSONDecodeError``)
    with an actionable message on unparseable files, wrong format tags,
    or a ``FORMAT_VERSION`` mismatch.
    """
    try:
        with open(path) as handle:
            payload = json.load(handle)
    except OSError as exc:
        raise ReproError(f"{path}: cannot read: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ReproError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ReproError(f"{path}: expected a JSON object")
    if payload.get("format") != expected_format:
        kind = expected_format.rsplit(".", 1)[-1].replace("_", "-")
        raise ReproError(
            f"{path}: not a {kind} file "
            f"(format tag {payload.get('format')!r}, expected {expected_format!r})"
        )
    if payload.get("version") != FORMAT_VERSION:
        raise ReproError(
            f"{path}: unsupported version {payload.get('version')!r} "
            f"(this build reads version {FORMAT_VERSION})"
        )
    return payload


def rank_result_to_dict(result: RankResult) -> dict:
    """Serialize one rank result to a plain JSON-ready dictionary."""
    payload = {
        "rank": result.rank,
        "normalized": result.normalized,
        "total_wires": result.total_wires,
        "fits": result.fits,
        "error_bound": result.error_bound,
        "solver": result.solver,
        "stats": {
            "solver": result.stats.solver,
            "states_explored": result.stats.states_explored,
            "transitions": result.stats.transitions,
            "pack_checks": result.stats.pack_checks,
            "pack_successes": result.stats.pack_successes,
            "pack_pruned": result.stats.pack_pruned,
            "rows": result.stats.rows,
            "runtime_seconds": result.stats.runtime_seconds,
        },
    }
    if result.witness is not None:
        payload["witness"] = [
            {
                "pair": s.pair,
                "start_group": s.start_group,
                "end_group": s.end_group,
                "repeater_cells": s.repeater_cells,
                "repeaters": s.repeaters,
            }
            for s in result.witness
        ]
    return payload


def rank_result_from_dict(payload: dict) -> RankResult:
    """Inverse of :func:`rank_result_to_dict`; raises on missing keys."""
    try:
        # Files from before the single DP kernel also carry
        # stats["backend"]; it named the kernel then chosen and is ignored.
        stats_data = payload["stats"]
        stats = SolverStats(
            solver=stats_data["solver"],
            states_explored=stats_data["states_explored"],
            transitions=stats_data["transitions"],
            pack_checks=stats_data["pack_checks"],
            pack_successes=stats_data["pack_successes"],
            # absent in pre-memoization files: those ran unpruned
            pack_pruned=stats_data.get("pack_pruned", 0),
            # absent in pre-observability files
            rows=stats_data.get("rows", 0),
            runtime_seconds=stats_data["runtime_seconds"],
        )
        witness = None
        if "witness" in payload:
            witness = tuple(
                WitnessSegment(
                    pair=s["pair"],
                    start_group=s["start_group"],
                    end_group=s["end_group"],
                    repeater_cells=s["repeater_cells"],
                    repeaters=s["repeaters"],
                )
                for s in payload["witness"]
            )
        return RankResult(
            rank=payload["rank"],
            normalized=payload["normalized"],
            total_wires=payload["total_wires"],
            fits=payload["fits"],
            error_bound=payload["error_bound"],
            solver=payload["solver"],
            stats=stats,
            witness=witness,
        )
    except KeyError as exc:
        raise ReproError(f"malformed rank-result payload: missing {exc}") from exc


# Backwards-compatible private aliases (pre-runner name).
_result_to_dict = rank_result_to_dict
_result_from_dict = rank_result_from_dict


def save_rank_result(result: RankResult, path: PathLike) -> None:
    """Write one rank result (witness included if present) to JSON."""
    payload = {
        "format": "repro.rank_result",
        "version": FORMAT_VERSION,
        "result": rank_result_to_dict(result),
    }
    write_json_atomic(payload, path)


def load_rank_result(path: PathLike) -> RankResult:
    """Read a rank result written by :func:`save_rank_result`."""
    payload = read_versioned_json(path, "repro.rank_result")
    return rank_result_from_dict(payload["result"])


def save_sweep(sweep: SweepResult, path: PathLike) -> None:
    """Write a sweep (all points, paper values, failures) to JSON."""
    payload = {
        "format": "repro.sweep",
        "version": FORMAT_VERSION,
        "name": sweep.name,
        "points": [
            {
                "value": point.value,
                "paper_normalized": point.paper_normalized,
                "result": rank_result_to_dict(point.result),
            }
            for point in sweep.points
        ],
    }
    if sweep.failures:
        payload["failures"] = [f.to_dict() for f in sweep.failures]
    write_json_atomic(payload, path)


def save_request(request: object, path: PathLike) -> None:
    """Write one typed wire-schema request (see :mod:`repro.schema`).

    The canonical form is persisted — sorted keys, defaults filled,
    units normalized — so a saved request re-fingerprints identically
    on load.  Transport-only fields (``deadline_s``,
    ``allow_partial``) are not part of the canonical form and are not
    persisted: a stored request records *what* was asked, not how one
    particular serving of it was scheduled.
    """
    kind = next(
        (k for k, cls in REQUEST_TYPES.items() if type(request) is cls), None
    )
    if kind is None:
        raise ReproError(
            f"save_request() takes a repro.schema request type, "
            f"got {type(request).__name__}"
        )
    payload = {
        "format": "repro.request",
        "version": FORMAT_VERSION,
        "kind": kind,
        "request": request.canonicalize(),  # type: ignore[attr-defined]
    }
    write_json_atomic(payload, path)


def load_request(path: PathLike) -> object:
    """Read a request written by :func:`save_request`.

    Returns the typed request (``RankRequest``/``SweepRequest``/...)
    for its recorded ``kind``; the payload re-validates through
    ``from_wire``, so a hand-edited file fails loudly, not subtly.
    """
    payload = read_versioned_json(path, "repro.request")
    kind = payload.get("kind")
    request_type = REQUEST_TYPES.get(kind) if isinstance(kind, str) else None
    if request_type is None:
        raise ReproError(
            f"{path}: unknown request kind {kind!r} "
            f"(expected one of {sorted(REQUEST_TYPES)})"
        )
    body = payload.get("request")
    if not isinstance(body, dict):
        raise ReproError(f"{path}: 'request' must be a JSON object")
    try:
        return request_type.from_wire(body)
    except SchemaError as exc:
        raise ReproError(f"{path}: invalid request payload: {exc}") from exc


def load_sweep(path: PathLike) -> SweepResult:
    """Read a sweep written by :func:`save_sweep`."""
    payload = read_versioned_json(path, "repro.sweep")
    try:
        points = tuple(
            SweepPoint(
                value=point["value"],
                result=rank_result_from_dict(point["result"]),
                paper_normalized=point.get("paper_normalized"),
            )
            for point in payload["points"]
        )
        failures = tuple(
            PointFailure.from_dict(f) for f in payload.get("failures", ())
        )
        return SweepResult(
            name=payload["name"], points=points, failures=failures
        )
    except KeyError as exc:
        raise ReproError(f"{path}: malformed sweep payload: missing {exc}") from exc
