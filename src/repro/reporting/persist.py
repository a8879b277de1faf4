"""Rank results as versioned, flat JSON.

The runner's checkpoints (:mod:`repro.runner.checkpoint`) store each
finished point as :func:`rank_result_to_dict` and restore it with
:func:`rank_result_from_dict` on resume.  The payload is plain JSON,
stable across refactors of the in-memory dataclasses.
"""

from __future__ import annotations

from ..core.dp import SolverStats, WitnessSegment
from ..core.rank import RankResult
from ..errors import ReproError

#: Format version written into every checkpoint.
FORMAT_VERSION = 1


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
