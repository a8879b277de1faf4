"""Versioned wire schema: typed requests and responses (v1).

Every entry point that accepts "solve this architecture" parameters —
the HTTP service (:mod:`repro.service`), the CLI, persistence, and the
memoization layer — constructs the typed requests defined here instead
of ad-hoc keyword dicts.  The schema gives three guarantees:

* **validated** — :meth:`RankRequest.from_wire` rejects unknown keys,
  wrong types, non-finite numbers, and unsupported
  ``schema_version`` values with a :class:`~repro.errors.SchemaError`
  naming the offending field;
* **canonical** — :meth:`~RankRequest.canonicalize` produces one
  normalized plain-JSON form per *meaning*: defaults are materialized,
  keys are sorted, numbers are coerced to their field's type, and
  unit-suffixed spellings (``"500MHz"``, ``"0.5GHz"``) collapse to the
  same hertz value.  :meth:`~RankRequest.canonical_json` is therefore
  byte-stable: two requests that mean the same thing serialize to the
  same bytes;
* **fingerprinted** — :meth:`~RankRequest.fingerprint` is the SHA-256
  of the canonical bytes (the same digest discipline as
  :func:`repro.core.precompute.fingerprint`), which is the memoization
  key the service's result cache and in-flight request dedup use.

The non-semantic transport field ``deadline_s`` (per-request SLO) is
accepted on the wire but *excluded* from the canonical form, so it
never fragments the cache.  The retired v1 field ``backend`` (it once
chose between two DP kernels; there is one now) is still accepted as
``"numpy"``, ``"python"`` or ``null`` and ignored.

The wire format is versioned: every request and response carries
``schema_version`` (currently :data:`SCHEMA_VERSION`).  Requests
omitting it are assumed current; requests carrying an unsupported
version are rejected, never guessed at.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Any, Dict, Mapping, Optional, Sequence, Tuple, Type, TypeVar

from .core.precompute import fingerprint_bytes
from .core.problem import RankProblem
from .core.rank import SOLVERS
from .core.scenarios import baseline_problem
from .errors import SchemaError
from .tech.node import TechnologyNode
from .units import GHZ, KILO, MHZ, TERA

if TYPE_CHECKING:
    from .optimize.space import DesignSpace

#: Version tag written into (and required compatible by) every wire
#: payload this module produces or parses.
SCHEMA_VERSION = 1

#: Knobs a sweep may vary, mirroring the paper's Table 4 columns.
SWEEP_KNOBS = ("K", "M", "C", "R")

#: Size caps.  A solve's work and memory grow with both knobs: the
#: Davis WLD, its coarse groups and the assignment tables grow with
#: ``gates``, and the DP expands each group's candidates over up to
#: ``repeater_units + 1`` budget cells (the kernel keeps sparse records,
#: not a dense groups x cells table; see ``core/dp_numpy.py``).  The caps
#: sit far above every documented value (1M gates and 512 units by
#: default, 2M gates in the benchmark) and bound what one request may
#: ask for, so an oversized request is a 400, never a MemoryError.
MAX_GATES = 10**8
MAX_REPEATER_UNITS = 2**14
#: Cap on ``gates * repeater_units``: the two caps may not combine.
MAX_GATE_UNITS = MAX_GATES * 512
#: Cap on each tier's pair count (``local_pairs``, ``semi_global_pairs``,
#: ``global_pairs`` and every element of an optimize request's
#: ``*_pairs_choices``).  Solve time grows with the layer count: at 100k
#: gates one solve took 0.03 s at 4 local pairs, 0.10 s at 16 and 0.25 s
#: at 64 (2-CPU Xeon), while 10**8 local pairs gave no answer within a
#: minute at a 10-20 s ``deadline_s``.  The paper's architectures and the
#: default optimize design space use at most 3 per tier.
MAX_PAIRS_PER_TIER = 64

_FREQUENCY_SUFFIXES: Tuple[Tuple[str, float], ...] = (
    ("THz", TERA),
    ("GHz", GHZ),
    ("MHz", MHZ),
    ("kHz", KILO),
    ("Hz", 1.0),
)

T = TypeVar("T", bound="_Request")


# ---------------------------------------------------------------------------
# Field parsing helpers
# ---------------------------------------------------------------------------


def parse_frequency(value: object, field_name: str = "frequency") -> float:
    """Normalize a frequency to hertz.

    Accepts a positive number (hertz) or a string with an optional SI
    suffix: ``"500MHz"``, ``"0.5 GHz"``, ``"2e9"``.  Raises
    :class:`~repro.errors.SchemaError` on anything else — this is the
    unit normalization step of request canonicalization.
    """
    if isinstance(value, bool):
        raise SchemaError(f"{field_name}: expected a frequency, got {value!r}")
    if isinstance(value, (int, float)):
        return _finite_positive(_as_float(value, field_name), field_name)
    if isinstance(value, str):
        text = value.strip()
        for suffix, scale in _FREQUENCY_SUFFIXES:
            if text.lower().endswith(suffix.lower()):
                number = text[: -len(suffix)].strip()
                try:
                    return _finite_positive(float(number) * scale, field_name)
                except ValueError:
                    break
        try:
            return _finite_positive(float(text), field_name)
        except ValueError:
            pass
        raise SchemaError(
            f"{field_name}: cannot parse frequency {value!r} "
            f"(use hertz, or a suffix like '500MHz' / '0.5GHz')"
        )
    raise SchemaError(f"{field_name}: expected a frequency, got {value!r}")


def _finite_positive(value: float, field_name: str) -> float:
    if not math.isfinite(value) or value <= 0:
        raise SchemaError(f"{field_name}: must be finite and > 0, got {value!r}")
    return value


def _check_permittivity(value: float, field_name: str) -> float:
    if not (math.isfinite(value) and value >= 1.0):
        raise SchemaError(
            f"{field_name}: must be finite and >= 1.0 (vacuum), got {value!r}"
        )
    return value


def _as_float(value: object, field_name: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"{field_name}: expected a number, got {value!r}")
    try:
        result = float(value)
    except OverflowError:  # an exact JSON integer beyond float range
        result = math.inf
    if not math.isfinite(result):
        raise SchemaError(f"{field_name}: must be finite, got {value!r}")
    return result


def _as_positive_float(value: object, field_name: str) -> float:
    return _finite_positive(_as_float(value, field_name), field_name)


def _as_int(value: object, field_name: str, minimum: int = 0) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(f"{field_name}: expected an integer, got {value!r}")
    if value < minimum:
        raise SchemaError(f"{field_name}: must be >= {minimum}, got {value!r}")
    return value


def _as_bool(value: object, field_name: str) -> bool:
    if not isinstance(value, bool):
        raise SchemaError(f"{field_name}: expected true/false, got {value!r}")
    return value


def _as_str(value: object, field_name: str) -> str:
    if not isinstance(value, str):
        raise SchemaError(f"{field_name}: expected a string, got {value!r}")
    return value


def _as_choice(
    value: object, field_name: str, choices: Sequence[str]
) -> str:
    text = _as_str(value, field_name)
    if text not in choices:
        raise SchemaError(
            f"{field_name}: {text!r} is not one of {tuple(choices)!r}"
        )
    return text


def _as_optional_count(value: object, field_name: str) -> Optional[int]:
    """``None``/``0`` both mean "disabled" and canonicalize to ``None``."""
    if value is None:
        return None
    count = _as_int(value, field_name, minimum=0)
    return count or None


def _require(payload: Mapping[str, object], name: str, what: str) -> object:
    if name not in payload:
        raise SchemaError(f"{what}: missing required field {name!r}")
    return payload[name]


def _check_schema_version(payload: Mapping[str, object]) -> None:
    version = payload.get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise SchemaError(
            f"schema_version: unsupported value {version!r} "
            f"(this build speaks version {SCHEMA_VERSION})"
        )


def _reject_unknown(
    payload: Mapping[str, object], known: Sequence[str], what: str
) -> None:
    unknown = sorted(set(payload) - set(known) - {"schema_version"})
    if unknown:
        raise SchemaError(
            f"{what}: unknown field(s) {', '.join(map(repr, unknown))}; "
            f"known fields: {', '.join(sorted(known))}"
        )


def canonical_json_bytes(payload: Mapping[str, object]) -> bytes:
    """The canonical serialization: sorted keys, no whitespace, ASCII."""
    return json.dumps(
        payload,
        sort_keys=True,
        separators=(",", ":"),
        allow_nan=False,
        ensure_ascii=True,
    ).encode("ascii")


# ---------------------------------------------------------------------------
# Requests
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Request:
    """Shared problem/solve fields of every v1 request.

    The defaults are the paper's Table 2 baseline, mirroring
    :func:`repro.api.baseline_problem`; a canonical request always
    carries every field explicitly.  :meth:`problem` and
    :meth:`solve_kwargs` are the one translation from these fields to
    a solve, shared by the CLI and every service job.
    """

    node: str = "130nm"
    gates: int = 1_000_000
    clock_frequency: float = 500.0 * MHZ
    repeater_fraction: float = 0.4
    permittivity: float = 3.9
    miller_factor: float = 2.0
    rent_exponent: float = 0.6
    local_pairs: int = 1
    semi_global_pairs: int = 2
    global_pairs: int = 1
    target_kind: str = "linear"
    solver: str = "dp"
    bunch_size: Optional[int] = 10_000
    max_groups: Optional[int] = None
    repeater_units: int = 512
    #: Transport-only: per-request wall-clock budget in seconds.
    deadline_s: Optional[float] = None

    def __post_init__(self) -> None:
        _finite_positive(self.clock_frequency, "clock_frequency")
        if not 1 <= self.gates <= MAX_GATES:
            raise SchemaError(
                f"gates: must be in [1, {MAX_GATES}], got {self.gates!r}"
            )
        if not 0.0 < self.repeater_fraction <= 1.0:
            raise SchemaError(
                f"repeater_fraction: must be in (0, 1], "
                f"got {self.repeater_fraction!r}"
            )
        _check_permittivity(self.permittivity, "permittivity")
        _finite_positive(self.miller_factor, "miller_factor")
        if not 0.0 < self.rent_exponent < 1.0:
            raise SchemaError(
                f"rent_exponent: must be in (0, 1), got {self.rent_exponent!r}"
            )
        if self.solver not in SOLVERS:
            raise SchemaError(
                f"solver: {self.solver!r} is not one of {SOLVERS!r}"
            )
        for name, minimum in (("local_pairs", 1), ("semi_global_pairs", 0),
                              ("global_pairs", 0)):
            count = getattr(self, name)
            if not minimum <= count <= MAX_PAIRS_PER_TIER:
                raise SchemaError(
                    f"{name}: must be in [{minimum}, {MAX_PAIRS_PER_TIER}], "
                    f"got {count!r}"
                )
        if not 1 <= self.repeater_units <= MAX_REPEATER_UNITS:
            raise SchemaError(
                f"repeater_units: must be in [1, {MAX_REPEATER_UNITS}], "
                f"got {self.repeater_units!r}"
            )
        if self.gates * self.repeater_units > MAX_GATE_UNITS:
            raise SchemaError(
                f"repeater_units: must be <= {MAX_GATE_UNITS // self.gates} "
                f"at {self.gates} gates, got {self.repeater_units!r}"
            )
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise SchemaError(
                f"deadline_s: must be > 0, got {self.deadline_s!r}"
            )

    # -- parsing -------------------------------------------------------

    @classmethod
    def _base_kwargs(cls, payload: Mapping[str, object]) -> Dict[str, Any]:
        """Parse the shared fields out of a wire payload."""
        kwargs: Dict[str, Any] = {}
        if "node" in payload:
            kwargs["node"] = _as_str(payload["node"], "node")
        if "gates" in payload:
            kwargs["gates"] = _as_int(payload["gates"], "gates", minimum=1)
        if "clock_frequency" in payload:
            kwargs["clock_frequency"] = parse_frequency(
                payload["clock_frequency"], "clock_frequency"
            )
        for name in ("repeater_fraction", "permittivity", "miller_factor",
                     "rent_exponent"):
            if name in payload:
                kwargs[name] = _as_positive_float(payload[name], name)
        if "local_pairs" in payload:
            kwargs["local_pairs"] = _as_int(
                payload["local_pairs"], "local_pairs", minimum=1
            )
        for name in ("semi_global_pairs", "global_pairs"):
            if name in payload:
                kwargs[name] = _as_int(payload[name], name, minimum=0)
        if "target_kind" in payload:
            kwargs["target_kind"] = _as_choice(
                payload["target_kind"], "target_kind", ("linear", "quadratic")
            )
        if "solver" in payload:
            kwargs["solver"] = _as_choice(
                payload["solver"], "solver", SOLVERS
            )
        if "bunch_size" in payload:
            kwargs["bunch_size"] = _as_optional_count(
                payload["bunch_size"], "bunch_size"
            )
        if "max_groups" in payload:
            kwargs["max_groups"] = _as_optional_count(
                payload["max_groups"], "max_groups"
            )
        if "repeater_units" in payload:
            kwargs["repeater_units"] = _as_int(
                payload["repeater_units"], "repeater_units", minimum=1
            )
        if payload.get("deadline_s") is not None:
            kwargs["deadline_s"] = _as_positive_float(
                payload["deadline_s"], "deadline_s"
            )
        if payload.get("backend") is not None:
            # Retired v1 field: validated as before, then ignored.
            _as_choice(payload["backend"], "backend", ("numpy", "python"))
        return kwargs

    @classmethod
    def _known_fields(cls) -> Tuple[str, ...]:
        # ``backend`` is a retired v1 field, accepted and ignored.
        return tuple(spec.name for spec in fields(cls)) + ("backend",)

    @classmethod
    def from_wire(cls: Type[T], payload: Mapping[str, object]) -> T:
        """Parse and validate a wire payload into a typed request."""
        if not isinstance(payload, Mapping):
            raise SchemaError(
                f"{cls.__name__}: expected a JSON object, got {payload!r}"
            )
        _check_schema_version(payload)
        _reject_unknown(payload, cls._known_fields(), cls.__name__)
        return cls(**cls._parse_kwargs(payload))

    @classmethod
    def _parse_kwargs(cls, payload: Mapping[str, object]) -> Dict[str, Any]:
        return cls._base_kwargs(payload)

    # -- canonical form ------------------------------------------------

    def _canonical_base(self) -> Dict[str, object]:
        """Shared semantic fields with normalized value types.

        The transport-only ``deadline_s`` is deliberately absent: it
        changes how a request is *served*, never what it *means*, and
        must not fragment the memo cache.
        """
        return {
            "schema_version": SCHEMA_VERSION,
            "node": self.node,
            "gates": int(self.gates),
            "clock_frequency": float(self.clock_frequency),
            "repeater_fraction": float(self.repeater_fraction),
            "permittivity": float(self.permittivity),
            "miller_factor": float(self.miller_factor),
            "rent_exponent": float(self.rent_exponent),
            "local_pairs": int(self.local_pairs),
            "semi_global_pairs": int(self.semi_global_pairs),
            "global_pairs": int(self.global_pairs),
            "target_kind": self.target_kind,
            "solver": self.solver,
            "bunch_size": self.bunch_size,
            "max_groups": self.max_groups,
            "repeater_units": int(self.repeater_units),
        }

    def canonicalize(self) -> Dict[str, object]:
        """The canonical plain-JSON form: sorted keys, defaults filled,
        values unit-normalized; byte-stable once serialized."""
        return dict(sorted(self._canonical_base().items()))

    def canonical_json(self) -> bytes:
        """Canonical bytes: two equal-meaning requests serialize equal."""
        return canonical_json_bytes(self.canonicalize())

    def fingerprint(self) -> str:
        """SHA-256 of :meth:`canonical_json` — the memoization key."""
        return fingerprint_bytes(self.canonical_json())

    def problem(self, node: Optional[TechnologyNode] = None) -> RankProblem:
        """The rank problem this request describes.

        ``node``, a loaded technology node (``ia-rank --node-file``),
        stands in for the built-in node the ``node`` field names.
        """
        return baseline_problem(
            self.node if node is None else node,
            self.gates,
            clock_frequency=self.clock_frequency,
            repeater_fraction=self.repeater_fraction,
            permittivity=self.permittivity,
            miller_factor=self.miller_factor,
            rent_exponent=self.rent_exponent,
            local_pairs=self.local_pairs,
            semi_global_pairs=self.semi_global_pairs,
            global_pairs=self.global_pairs,
            target_kind=self.target_kind,
        )

    def solve_kwargs(self) -> Dict[str, Any]:
        """Keywords for :func:`repro.api.compute_rank` (sans deadline)."""
        return {
            "solver": self.solver,
            "bunch_size": self.bunch_size,
            "max_groups": self.max_groups,
            "repeater_units": self.repeater_units,
        }


@dataclass(frozen=True)
class RankRequest(_Request):
    """``POST /v1/rank``: one rank computation."""


@dataclass(frozen=True)
class SweepRequest(_Request):
    """``POST /v1/sweep``: one Table 4 knob swept over given values.

    ``allow_partial`` is transport-only: when the request deadline
    expires mid-sweep, ``True`` returns the completed prefix marked
    ``partial`` (and skips memoization), ``False`` answers 504.
    """

    knob: str = "C"
    values: Tuple[float, ...] = ()
    allow_partial: bool = True

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.knob not in SWEEP_KNOBS:
            raise SchemaError(
                f"knob: {self.knob!r} is not one of {SWEEP_KNOBS!r}"
            )
        if not self.values:
            raise SchemaError("values: a sweep needs at least one value")

    @classmethod
    def _parse_kwargs(cls, payload: Mapping[str, object]) -> Dict[str, Any]:
        kwargs = cls._base_kwargs(payload)
        if "knob" in payload:
            kwargs["knob"] = _as_choice(payload["knob"], "knob", SWEEP_KNOBS)
        if "values" in payload:
            raw = payload["values"]
            if not isinstance(raw, (list, tuple)):
                raise SchemaError(
                    f"values: expected a list of numbers, got {raw!r}"
                )
            # Clock sweeps ("C") take unit-suffixed spellings per value.
            knob = kwargs.get("knob", "C")
            parser = parse_frequency if knob == "C" else _as_positive_float
            kwargs["values"] = tuple(
                parser(item, f"values[{i}]") for i, item in enumerate(raw)
            )
        if "allow_partial" in payload:
            kwargs["allow_partial"] = _as_bool(
                payload["allow_partial"], "allow_partial"
            )
        return kwargs

    def _canonical_base(self) -> Dict[str, object]:
        base = super()._canonical_base()
        base["knob"] = self.knob
        base["values"] = [float(v) for v in self.values]
        return base

    def point_request(self, value: float) -> RankRequest:
        """The :class:`RankRequest` of one sweep point.

        Sweep points share the service's *point-level* memo cache with
        plain ``/v1/rank`` traffic because both canonicalize to the
        same request.
        """
        override = {
            "K": "permittivity",
            "M": "miller_factor",
            "C": "clock_frequency",
            "R": "repeater_fraction",
        }[self.knob]
        kwargs: Dict[str, Any] = {
            spec.name: getattr(self, spec.name)
            for spec in fields(RankRequest)
        }
        kwargs[override] = float(value)
        return RankRequest(**kwargs)


@dataclass(frozen=True)
class CornersRequest(_Request):
    """``POST /v1/corners``: sign-off rank across process corners.

    ``corners`` selects by name from the standard five-corner set
    (:data:`repro.analysis.corners.STANDARD_CORNERS`); empty means all.
    """

    corners: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        super().__post_init__()
        known = tuple(c.name for c in _standard_corners())
        for name in self.corners:
            if name not in known:
                raise SchemaError(
                    f"corners: unknown corner {name!r}; choose from {known!r}"
                )
        if len(set(self.corners)) != len(self.corners):
            raise SchemaError(f"corners: duplicate names in {self.corners!r}")

    @classmethod
    def _parse_kwargs(cls, payload: Mapping[str, object]) -> Dict[str, Any]:
        kwargs = cls._base_kwargs(payload)
        if "corners" in payload:
            raw = payload["corners"]
            if not isinstance(raw, (list, tuple)):
                raise SchemaError(
                    f"corners: expected a list of corner names, got {raw!r}"
                )
            kwargs["corners"] = tuple(
                _as_str(item, f"corners[{i}]") for i, item in enumerate(raw)
            )
        return kwargs

    def _canonical_base(self) -> Dict[str, object]:
        base = super()._canonical_base()
        # Selection is a set; canonical order is the standard-set order.
        selected = self.selected_corner_names()
        base["corners"] = list(selected)
        return base

    def selected_corner_names(self) -> Tuple[str, ...]:
        """Requested corners in standard-set order (empty = all)."""
        standard = tuple(c.name for c in _standard_corners())
        if not self.corners:
            return standard
        wanted = set(self.corners)
        return tuple(name for name in standard if name in wanted)


@dataclass(frozen=True)
class OptimizeRequest(_Request):
    """``POST /v1/optimize``: architecture search over a design space."""

    local_pairs_choices: Tuple[int, ...] = (1, 2)
    semi_global_pairs_choices: Tuple[int, ...] = (1, 2, 3)
    global_pairs_choices: Tuple[int, ...] = (1, 2)
    permittivities: Tuple[float, ...] = (3.9, 3.6, 2.8)
    miller_factors: Tuple[float, ...] = (2.0, 1.0)
    max_metal_layers: int = 12
    exhaustive_limit: int = 128

    def __post_init__(self) -> None:
        super().__post_init__()
        for name in ("local_pairs_choices", "semi_global_pairs_choices",
                     "global_pairs_choices", "permittivities",
                     "miller_factors"):
            if not getattr(self, name):
                raise SchemaError(f"{name}: must not be empty")
        for name, minimum in (("local_pairs_choices", 1),
                              ("semi_global_pairs_choices", 0),
                              ("global_pairs_choices", 0)):
            for i, count in enumerate(getattr(self, name)):
                if not minimum <= count <= MAX_PAIRS_PER_TIER:
                    raise SchemaError(
                        f"{name}[{i}]: must be in "
                        f"[{minimum}, {MAX_PAIRS_PER_TIER}], got {count!r}"
                    )
        for i, k in enumerate(self.permittivities):
            _check_permittivity(k, f"permittivities[{i}]")
        for i, m in enumerate(self.miller_factors):
            _finite_positive(m, f"miller_factors[{i}]")
        if self.max_metal_layers < 2:
            raise SchemaError(
                f"max_metal_layers: must be >= 2, got {self.max_metal_layers!r}"
            )
        if self.exhaustive_limit < 1:
            raise SchemaError(
                f"exhaustive_limit: must be >= 1, got {self.exhaustive_limit!r}"
            )

    @classmethod
    def _parse_kwargs(cls, payload: Mapping[str, object]) -> Dict[str, Any]:
        kwargs = cls._base_kwargs(payload)
        for name in ("local_pairs_choices", "semi_global_pairs_choices",
                     "global_pairs_choices"):
            if name in payload:
                raw = payload[name]
                if not isinstance(raw, (list, tuple)):
                    raise SchemaError(
                        f"{name}: expected a list of integers, got {raw!r}"
                    )
                kwargs[name] = tuple(
                    _as_int(item, f"{name}[{i}]", minimum=0)
                    for i, item in enumerate(raw)
                )
        for name in ("permittivities", "miller_factors"):
            if name in payload:
                raw = payload[name]
                if not isinstance(raw, (list, tuple)):
                    raise SchemaError(
                        f"{name}: expected a list of numbers, got {raw!r}"
                    )
                kwargs[name] = tuple(
                    _as_positive_float(item, f"{name}[{i}]")
                    for i, item in enumerate(raw)
                )
        for name in ("max_metal_layers", "exhaustive_limit"):
            if name in payload:
                kwargs[name] = _as_int(payload[name], name, minimum=1)
        return kwargs

    def _canonical_base(self) -> Dict[str, object]:
        base = super()._canonical_base()
        base["local_pairs_choices"] = sorted(set(self.local_pairs_choices))
        base["semi_global_pairs_choices"] = sorted(
            set(self.semi_global_pairs_choices)
        )
        base["global_pairs_choices"] = sorted(set(self.global_pairs_choices))
        base["permittivities"] = sorted(
            {float(k) for k in self.permittivities}, reverse=True
        )
        base["miller_factors"] = sorted(
            {float(m) for m in self.miller_factors}, reverse=True
        )
        base["max_metal_layers"] = int(self.max_metal_layers)
        base["exhaustive_limit"] = int(self.exhaustive_limit)
        return base

    def design_space(self, node: TechnologyNode) -> DesignSpace:
        """The candidate architectures to search, built on ``node``."""
        # Deferred: repro.optimize loads repro.analysis (see
        # _standard_corners).
        from .optimize.space import DesignSpace

        return DesignSpace(
            node=node,
            local_pairs=tuple(self.local_pairs_choices),
            semi_global_pairs=tuple(self.semi_global_pairs_choices),
            global_pairs=tuple(self.global_pairs_choices),
            permittivities=tuple(self.permittivities),
            miller_factors=tuple(self.miller_factors),
            max_metal_layers=self.max_metal_layers,
        )

    def solve_kwargs(self) -> Dict[str, Any]:
        """Keywords for :func:`repro.api.optimize_rank`: the search
        bound plus every candidate's :func:`repro.api.compute_rank`
        keywords."""
        return dict(super().solve_kwargs(), exhaustive_limit=self.exhaustive_limit)


def _standard_corners() -> Tuple[Any, ...]:
    # Deferred: repro.analysis pulls the runner stack, which this
    # module must not load at import time.
    from .analysis.corners import STANDARD_CORNERS

    return tuple(STANDARD_CORNERS)


#: Endpoint name -> request type.  The service routes requests in
#: ``service/app.py`` (``RankApp._routes``); this table is read by the
#: schema and golden-file round-trip tests.
REQUEST_TYPES: Dict[str, Type[_Request]] = {
    "rank": RankRequest,
    "sweep": SweepRequest,
    "corners": CornersRequest,
    "optimize": OptimizeRequest,
}


# ---------------------------------------------------------------------------
# Responses
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RankResponse:
    """Wire form of one rank result.

    Deliberately deterministic: no timing or cache metadata lives in
    the body (those travel as HTTP headers), so a memoized replay is
    byte-identical to the original response.
    """

    fingerprint: str
    rank: int
    normalized: float
    total_wires: int
    fits: bool
    error_bound: int
    solver: str

    @classmethod
    def from_result(cls, fingerprint: str, result: Any) -> "RankResponse":
        """Build from a :class:`repro.core.rank.RankResult`."""
        return cls(
            fingerprint=fingerprint,
            rank=int(result.rank),
            normalized=float(result.normalized),
            total_wires=int(result.total_wires),
            fits=bool(result.fits),
            error_bound=int(result.error_bound),
            solver=str(result.solver),
        )

    @classmethod
    def from_wire(cls, payload: Mapping[str, object]) -> "RankResponse":
        """Parse a wire payload (round-trip / client use)."""
        _check_schema_version(payload)
        _reject_unknown(
            payload,
            ("fingerprint", "rank", "normalized", "total_wires", "fits",
             "error_bound", "solver"),
            cls.__name__,
        )
        name = cls.__name__
        return cls(
            fingerprint=_as_str(_require(payload, "fingerprint", name),
                                "fingerprint"),
            rank=_as_int(_require(payload, "rank", name), "rank"),
            normalized=_as_float(_require(payload, "normalized", name),
                                 "normalized"),
            total_wires=_as_int(_require(payload, "total_wires", name),
                                "total_wires"),
            fits=_as_bool(_require(payload, "fits", name), "fits"),
            error_bound=_as_int(_require(payload, "error_bound", name),
                                "error_bound"),
            solver=_as_str(_require(payload, "solver", name), "solver"),
        )

    def to_wire(self) -> Dict[str, object]:
        """Plain-JSON payload, canonical key order."""
        return dict(
            sorted(
                {
                    "schema_version": SCHEMA_VERSION,
                    "fingerprint": self.fingerprint,
                    "rank": self.rank,
                    "normalized": float(self.normalized),
                    "total_wires": self.total_wires,
                    "fits": self.fits,
                    "error_bound": self.error_bound,
                    "solver": self.solver,
                }.items()
            )
        )

    def canonical_json(self) -> bytes:
        """Byte-stable serialization of :meth:`to_wire`."""
        return canonical_json_bytes(self.to_wire())


__all__ = [
    "SCHEMA_VERSION",
    "SWEEP_KNOBS",
    "REQUEST_TYPES",
    "RankRequest",
    "SweepRequest",
    "CornersRequest",
    "OptimizeRequest",
    "RankResponse",
    "canonical_json_bytes",
    "fingerprint_bytes",
    "parse_frequency",
]
