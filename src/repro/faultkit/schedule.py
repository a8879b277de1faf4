"""Deterministic fault schedules: *which* fault fires *where*.

A :class:`FaultSchedule` is an ordered tuple of :class:`FaultSpec`
entries.  Each spec names a fault **site** (a string woven into the
runner stack, e.g. ``parallel.worker.start``), a fault **kind** (what
happens when it fires), and matchers narrowing the firing to a specific
point key, attempt index, resubmission index, or per-process occurrence
count.  Schedules are plain data: they round-trip through JSON, travel
to worker processes by pickle, and can be generated reproducibly from
an injected :class:`random.Random` via :meth:`FaultSchedule.seeded` —
the same seed always yields the same chaos run.

Schedules describe *intent* only; arming them is
:func:`repro.faultkit.inject.install`'s job.  Nothing in this module
touches processes, files, or clocks.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fnmatch import fnmatchcase
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

import random

from ..errors import FaultInjectionError

#: Environment variable consulted by :func:`schedule_from_env` — either
#: inline JSON (first non-space char ``[`` or ``{``) or a path to a
#: JSON file.
ENV_VAR = "REPRO_FAULT_SCHEDULE"

#: Every fault kind the injector knows how to perform.
KINDS: Tuple[str, ...] = ("raise", "kill", "hang", "pickle", "torn", "corrupt")

#: Fault sites woven into the runner stack (globs in specs may match
#: others; this tuple documents — and :meth:`FaultSchedule.seeded`
#: draws from — the canonical set).
SITES: Tuple[str, ...] = (
    "executor.attempt.start",
    "executor.attempt.end",
    "parallel.worker.start",
    "parallel.result",
    "pool.payload.load",
    "pool.chunk.dispatch",
    "pool.chunk.start",
    "checkpoint.write.pre",
    "checkpoint.write.mid",
    "checkpoint.write.post",
    "precompute.coarsen",
    "precompute.tables",
    "service.request.start",
    "service.solve.start",
)

#: Sites that only fire inside pool worker processes.  ``kill``/``hang``
#: faults are restricted to these by :meth:`FaultSchedule.seeded` so a
#: generated schedule never kills the parent (sequential) process.
#: ``pool.chunk.start`` fires once per received chunk (with the chunk's
#: first point as context), ``pool.payload.load`` once at worker startup.
WORKER_SITES: Tuple[str, ...] = (
    "parallel.worker.start",
    "parallel.result",
    "pool.chunk.start",
    "pool.payload.load",
)

#: Sites that receive a ``path`` context value and therefore support
#: the file-mangling ``torn``/``corrupt`` kinds.
FILE_SITES: Tuple[str, ...] = ("checkpoint.write.post",)


@dataclass(frozen=True)
class FaultSpec:
    """One planned fault.

    Attributes
    ----------
    site:
        Fault-site name; ``fnmatch`` globs are honoured
        (``"checkpoint.write.*"``).
    kind:
        One of :data:`KINDS` — ``raise`` (an
        :class:`~repro.errors.InjectedFault`), ``kill`` (SIGKILL the
        current process), ``hang`` (sleep ``arg`` seconds, default 60),
        ``pickle`` (a :class:`pickle.PicklingError`), ``torn``
        (truncate the site's file mid-payload), ``corrupt`` (flip a
        byte in the site's file).
    point:
        Only fire for this point key (``None`` = any point).
    attempt:
        Only fire for this 0-based attempt index.
    submit:
        Only fire for this 0-based resubmission index (parallel
        backend).  ``kill``/``hang`` specs should pin ``submit=0`` so
        the resubmitted point survives.
    occurrence:
        Only fire on the n-th (0-based) invocation of the site within
        one process — the matcher for sites with no point context
        (checkpoint writes, precompute).
    times:
        How many times the spec may fire per process (default 1).
    arg:
        Kind-specific parameter (hang duration in seconds).
    """

    site: str
    kind: str
    point: Optional[str] = None
    attempt: Optional[int] = None
    submit: Optional[int] = None
    occurrence: Optional[int] = None
    times: int = 1
    arg: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.site:
            raise FaultInjectionError("fault spec: site must be non-empty")
        if self.kind not in KINDS:
            raise FaultInjectionError(
                f"fault spec: unknown kind {self.kind!r} "
                f"(expected one of {', '.join(KINDS)})"
            )
        if self.times < 1:
            raise FaultInjectionError(
                f"fault spec: times must be >= 1, got {self.times!r}"
            )
        for name in ("attempt", "submit", "occurrence"):
            value: Optional[int] = getattr(self, name)
            if value is not None and value < 0:
                raise FaultInjectionError(
                    f"fault spec: {name} must be >= 0, got {value!r}"
                )

    def matches(self, site: str, context: Mapping[str, object], seen: int) -> bool:
        """Whether this spec fires for one site invocation.

        ``seen`` is how many times the site has been invoked in this
        process *before* the current call (the occurrence matcher).
        """
        if site != self.site and not fnmatchcase(site, self.site):
            return False
        if self.point is not None and context.get("point") != self.point:
            return False
        if self.attempt is not None and context.get("attempt") != self.attempt:
            return False
        if self.submit is not None and context.get("submit") != self.submit:
            return False
        if self.occurrence is not None and seen != self.occurrence:
            return False
        return True

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready mapping (defaults omitted)."""
        out: Dict[str, object] = {"site": self.site, "kind": self.kind}
        for name in ("point", "attempt", "submit", "occurrence", "arg"):
            value = getattr(self, name)
            if value is not None:
                out[name] = value
        if self.times != 1:
            out["times"] = self.times
        return out

    @classmethod
    def from_dict(cls, raw: object) -> "FaultSpec":
        if not isinstance(raw, Mapping):
            raise FaultInjectionError(
                f"fault spec must be a JSON object, got {type(raw).__name__}"
            )
        known = {
            "site", "kind", "point", "attempt", "submit",
            "occurrence", "times", "arg",
        }
        unknown = set(raw) - known
        if unknown:
            raise FaultInjectionError(
                f"fault spec: unknown field(s) {sorted(unknown)!r}"
            )
        if "site" not in raw or "kind" not in raw:
            raise FaultInjectionError(
                "fault spec: 'site' and 'kind' are required"
            )
        try:
            return cls(
                site=str(raw["site"]),
                kind=str(raw["kind"]),
                point=None if raw.get("point") is None else str(raw["point"]),
                attempt=None if raw.get("attempt") is None else int(raw["attempt"]),  # type: ignore[call-overload]
                submit=None if raw.get("submit") is None else int(raw["submit"]),  # type: ignore[call-overload]
                occurrence=(
                    None if raw.get("occurrence") is None else int(raw["occurrence"])  # type: ignore[call-overload]
                ),
                times=int(raw.get("times", 1)),  # type: ignore[call-overload]
                arg=None if raw.get("arg") is None else float(raw["arg"]),  # type: ignore[arg-type]
            )
        except (TypeError, ValueError) as exc:
            raise FaultInjectionError(f"fault spec: {exc}") from exc


@dataclass(frozen=True)
class FaultSchedule:
    """An ordered, immutable collection of planned faults.

    ``seed`` records provenance when the schedule was drawn by
    :meth:`seeded`; it is informational only — replaying a schedule
    replays its specs, not the generator.
    """

    specs: Tuple[FaultSpec, ...] = field(default=())
    seed: Optional[int] = None

    def __bool__(self) -> bool:
        return bool(self.specs)

    def to_json(self) -> str:
        """Serialize to the JSON form :meth:`from_json` accepts."""
        payload: Dict[str, object] = {
            "specs": [spec.to_dict() for spec in self.specs]
        }
        if self.seed is not None:
            payload["seed"] = self.seed
        return json.dumps(payload, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "FaultSchedule":
        """Parse a schedule from JSON — a bare spec list or a
        ``{"seed": ..., "specs": [...]}`` object."""
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise FaultInjectionError(
                f"fault schedule is not valid JSON (char {exc.pos}): {exc.msg}"
            ) from exc
        seed: Optional[int] = None
        if isinstance(raw, Mapping):
            specs_raw = raw.get("specs", [])
            if raw.get("seed") is not None:
                try:
                    seed = int(raw["seed"])  # type: ignore[call-overload]
                except (TypeError, ValueError) as exc:
                    raise FaultInjectionError(
                        f"fault schedule: seed must be an integer, "
                        f"got {raw['seed']!r}"
                    ) from exc
        elif isinstance(raw, list):
            specs_raw = raw
        else:
            raise FaultInjectionError(
                "fault schedule must be a JSON list of specs or an object "
                f"with a 'specs' list, got {type(raw).__name__}"
            )
        if not isinstance(specs_raw, list):
            raise FaultInjectionError("fault schedule: 'specs' must be a list")
        return cls(
            specs=tuple(FaultSpec.from_dict(entry) for entry in specs_raw),
            seed=seed,
        )

    @classmethod
    def seeded(
        cls,
        rng: random.Random,
        point_keys: Sequence[str],
        *,
        max_faults: int = 3,
        kinds: Iterable[str] = KINDS,
        hang_s: float = 5.0,
        seed: Optional[int] = None,
    ) -> "FaultSchedule":
        """Draw a reproducible schedule from an injected RNG.

        Every choice — how many faults, which kind, which point, which
        attempt — comes from ``rng``, so the same generator state
        always produces the same schedule.  ``raise`` fires at
        ``executor.attempt.start`` on attempt 0 or 1; ``kill``/``hang``/``pickle``
        are pinned to worker-only sites at ``submit=0`` (the
        resubmitted point must be able to succeed) — ``kill``/``hang``
        draw between the per-point ``parallel.worker.start`` site and
        the per-chunk ``pool.chunk.start`` site (the latter only fires
        when the drawn point leads its chunk, so some schedules are
        deliberately inert under chunked dispatch); ``torn``/``corrupt``
        land on checkpoint writes by occurrence.
        """
        keys = list(point_keys)
        if not keys:
            raise FaultInjectionError("seeded schedule needs at least one point key")
        pool = [kind for kind in kinds if kind in KINDS]
        if not pool:
            raise FaultInjectionError(
                f"seeded schedule: no valid kinds in {list(kinds)!r}"
            )
        specs: List[FaultSpec] = []
        for _ in range(rng.randint(1, max(1, max_faults))):
            kind = rng.choice(pool)
            if kind == "raise":
                specs.append(
                    FaultSpec(
                        site="executor.attempt.start",
                        kind="raise",
                        point=rng.choice(keys),
                        attempt=rng.randint(0, 1),
                    )
                )
            elif kind in ("kill", "hang"):
                specs.append(
                    FaultSpec(
                        site=rng.choice(
                            ("parallel.worker.start", "pool.chunk.start")
                        ),
                        kind=kind,
                        point=rng.choice(keys),
                        submit=0,
                        arg=hang_s if kind == "hang" else None,
                    )
                )
            elif kind == "pickle":
                specs.append(
                    FaultSpec(
                        site="parallel.result",
                        kind="pickle",
                        point=rng.choice(keys),
                        submit=0,
                    )
                )
            else:  # torn / corrupt
                specs.append(
                    FaultSpec(
                        site="checkpoint.write.post",
                        kind=kind,
                        occurrence=rng.randint(0, len(keys)),
                    )
                )
        return cls(specs=tuple(specs), seed=seed)


def parse_fault_schedule(value: Union[str, Path]) -> FaultSchedule:
    """Parse a schedule from inline JSON or a path to a JSON file.

    The CLI and :func:`schedule_from_env` share this rule: a value
    whose first non-space character is ``[`` or ``{`` is inline JSON;
    anything else is a file path.
    """
    text = str(value).strip()
    if text.startswith("[") or text.startswith("{"):
        return FaultSchedule.from_json(text)
    path = Path(text)
    try:
        content = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise FaultInjectionError(
            f"fault schedule file {path}: cannot read ({exc})"
        ) from exc
    return FaultSchedule.from_json(content)


def schedule_from_env(environ: Optional[Mapping[str, str]] = None) -> Optional[FaultSchedule]:
    """The schedule requested via :data:`ENV_VAR`, or ``None``.

    An empty / unset variable disables injection entirely — the common
    case, and the one the runner's guard keeps free.
    """
    import os

    env = os.environ if environ is None else environ
    raw = env.get(ENV_VAR, "").strip()
    if not raw:
        return None
    return parse_fault_schedule(raw)
