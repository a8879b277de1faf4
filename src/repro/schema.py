"""Versioned wire schema: typed requests and responses (v1).

Every entry point that accepts "solve this architecture" parameters —
the HTTP service (:mod:`repro.service`), the CLI, persistence, and the
memoization layer — constructs the typed requests defined here instead
of ad-hoc keyword dicts.  The schema gives three guarantees:

* **validated** — every field is declared once, with :func:`_field`:
  its default, its JSON kind and bounds, and its canonical form.
  ``__post_init__`` runs each declared check, so a request built from
  the wire (:meth:`RankRequest.from_wire`), from CLI flags or directly
  in Python raises the same :class:`~repro.errors.SchemaError`, naming
  the offending field, for the same bad value.  ``from_wire`` adds only
  what a JSON payload needs: it rejects unknown keys and unsupported
  ``schema_version`` values, and converts unit-suffixed frequencies;
* **canonical** — :meth:`~RankRequest.canonicalize` produces one
  normalized plain-JSON form per *meaning*: defaults are materialized,
  keys are sorted, numbers are coerced to their field's type, ``0``
  counts mean ``null``, and unit-suffixed spellings (``"500MHz"``,
  ``"0.5GHz"``) collapse to the same hertz value.
  :meth:`~RankRequest.canonical_json` is therefore byte-stable: two
  requests that mean the same thing serialize to the same bytes;
* **fingerprinted** — :meth:`~RankRequest.fingerprint` is the SHA-256
  of the canonical bytes (the same digest discipline as
  :func:`repro.core.precompute.fingerprint`), which is the memoization
  key the service's result cache and in-flight request dedup use.

The non-semantic transport fields ``deadline_s`` (per-request SLO) and
``allow_partial`` (sweeps) are accepted on the wire but *excluded* from
the canonical form, so they never fragment the cache.  The retired v1
field ``backend`` (it once chose between two DP kernels; there is one
now) is still accepted as ``"numpy"``, ``"python"`` or ``null`` and
ignored.

The wire format is versioned: every request and response carries
``schema_version`` (currently :data:`SCHEMA_VERSION`).  Requests
omitting it are assumed current; requests carrying an unsupported
version are rejected, never guessed at.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, dataclass, field, fields
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    ClassVar,
    Dict,
    FrozenSet,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Type,
    TypeVar,
)

from .core.precompute import fingerprint_bytes
from .core.problem import RankProblem
from .core.rank import SOLVERS
from .core.scenarios import (
    BASELINE_CLOCK_HZ,
    BASELINE_GLOBAL_PAIRS,
    BASELINE_LOCAL_PAIRS,
    BASELINE_MILLER,
    BASELINE_PERMITTIVITY,
    BASELINE_RENT_EXPONENT,
    BASELINE_REPEATER_FRACTION,
    BASELINE_SEMI_GLOBAL_PAIRS,
    baseline_problem,
)
from .errors import SchemaError
from .tech.node import TechnologyNode
from .tech.presets import NODE_NAMES
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
W = TypeVar("W", bound="_Wire")

#: A field check: ``(value, field name) -> value to store``; raises
#: :class:`~repro.errors.SchemaError` naming the field.
Check = Callable[[Any, str], Any]


# ---------------------------------------------------------------------------
# Field checks: one per JSON kind, with the field's bounds bound in
# ---------------------------------------------------------------------------


def _integer(low: int, high: Optional[int] = None) -> Check:
    """A JSON integer (never a bool) in ``[low, high]``; no upper bound
    when ``high`` is None."""
    bound = f">= {low}" if high is None else f"in [{low}, {high}]"
    top = math.inf if high is None else high

    def check(value: Any, name: str) -> int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise SchemaError(f"{name}: expected an integer, got {value!r}")
        if not low <= value <= top:
            raise SchemaError(f"{name}: must be {bound}, got {value!r}")
        return value

    return check


def _number(bound: str, holds: Callable[[float], bool]) -> Check:
    """A finite JSON number (never a bool) that ``holds``, stored as a
    float; ``bound`` words the condition for the error message."""

    def check(value: Any, name: str) -> float:
        if type(value) is float:
            number = value
        elif isinstance(value, bool) or not isinstance(value, (int, float)):
            raise SchemaError(f"{name}: expected a number, got {value!r}")
        else:
            try:
                number = float(value)
            except OverflowError:  # an exact integer beyond float range
                number = math.inf
        if not (math.isfinite(number) and holds(number)):
            raise SchemaError(f"{name}: must be {bound}, got {value!r}")
        return number

    return check


_POSITIVE = _number("finite and > 0", lambda v: v > 0)
_PERMITTIVITY = _number("finite and >= 1.0 (vacuum)", lambda v: v >= 1.0)
_FINITE = _number("finite", lambda v: True)


def _choice(options: Sequence[str]) -> Check:
    """A JSON string among ``options``."""
    options = tuple(options)

    def check(value: Any, name: str) -> str:
        _text(value, name)
        if value not in options:
            raise SchemaError(f"{name}: {value!r} is not one of {options!r}")
        return value

    return check


def _text(value: Any, name: str) -> str:
    """Any JSON string."""
    if not isinstance(value, str):
        raise SchemaError(f"{name}: expected a string, got {value!r}")
    return value


def _flag(value: Any, name: str) -> bool:
    """A JSON ``true``/``false``."""
    if not isinstance(value, bool):
        raise SchemaError(f"{name}: expected true/false, got {value!r}")
    return value


_NON_NEGATIVE = _integer(0)


def _count(value: Any, name: str) -> Optional[int]:
    """``null`` or ``0`` (both mean "disabled", stored as ``None``), or
    a positive integer."""
    if value is None:
        return None
    return _NON_NEGATIVE(value, name) or None


def _optional(check: Check) -> Check:
    """``null``, or a value ``check`` accepts."""
    return lambda value, name: None if value is None else check(value, name)


def _list_of(item: Check, noun: str, allow_empty: bool = False) -> Check:
    """A JSON list whose elements ``item`` accepts, each named
    ``field[i]``; stored as a tuple."""

    def check(value: Any, name: str) -> Tuple[Any, ...]:
        if not isinstance(value, (list, tuple)):
            raise SchemaError(f"{name}: expected a list of {noun}, got {value!r}")
        if not (value or allow_empty):
            raise SchemaError(f"{name}: must not be empty")
        return tuple(item(element, f"{name}[{i}]") for i, element in enumerate(value))

    return check


_CORNER_LIST = _list_of(_text, "corner names", allow_empty=True)


def _corner_selection(value: Any, name: str) -> Tuple[str, ...]:
    """Names from the standard corner set, each at most once."""
    names: Tuple[str, ...] = _CORNER_LIST(value, name)
    known = _standard_corner_names()
    for corner in names:
        if corner not in known:
            raise SchemaError(
                f"{name}: unknown corner {corner!r}; choose from {known!r}"
            )
    if len(set(names)) != len(names):
        raise SchemaError(f"{name}: duplicate names in {names!r}")
    return names


def _standard_corner_names() -> Tuple[str, ...]:
    # Deferred: repro.analysis pulls the runner stack, which this
    # module must not load at import time.
    from .analysis.corners import STANDARD_CORNERS

    return tuple(corner.name for corner in STANDARD_CORNERS)


# -- canonical forms that differ from the stored value ------------------


def _standard_order(names: Tuple[str, ...]) -> List[str]:
    """A corner selection is a set: standard-set order, empty = all."""
    standard = _standard_corner_names()
    if not names:
        return list(standard)
    return [name for name in standard if name in names]


def _ascending_set(values: Tuple[int, ...]) -> List[int]:
    return sorted(set(values))


def _descending_set(values: Tuple[float, ...]) -> List[float]:
    return sorted(set(values), reverse=True)


class _Spec(NamedTuple):
    check: Check
    #: Stored value -> canonical JSON value; None keeps the stored value.
    canonical: Optional[Callable[[Any], object]]
    #: Changes how a request is served, never what it means: kept out of
    #: the canonical form, so it cannot fragment the memo.
    transport: bool


def _field(
    default: Any,
    check: Check,
    canonical: Optional[Callable[[Any], object]] = None,
    transport: bool = False,
) -> Any:
    """Declare one wire field: its default (``MISSING`` = required), its
    JSON kind and bounds (``check``) and its canonical form."""
    return field(
        default=default, metadata={"wire": _Spec(check, canonical, transport)}
    )


def _wire_type(cls: Type[W]) -> Type[W]:
    """Build a wire dataclass's field tables once, at import."""
    specs = [(spec.name, spec.metadata["wire"]) for spec in fields(cls)]
    cls._CHECKS = tuple((name, spec.check) for name, spec in specs)
    canonical = {name: spec.canonical for name, spec in specs if not spec.transport}
    canonical["schema_version"] = None
    cls._CANONICAL = tuple(sorted(canonical.items()))
    cls._KNOWN = frozenset(name for name, _ in specs) | cls._RETIRED | {
        "schema_version"
    }
    cls._REQUIRED = tuple(
        spec.name for spec in fields(cls) if spec.default is MISSING
    )
    return cls


# ---------------------------------------------------------------------------
# Wire helpers
# ---------------------------------------------------------------------------


def parse_frequency(value: object, field_name: str = "frequency") -> float:
    """Normalize a frequency to hertz.

    Accepts a positive number (hertz) or a string with an optional SI
    suffix: ``"500MHz"``, ``"0.5 GHz"``, ``"2e9"``.  Raises
    :class:`~repro.errors.SchemaError` on anything else — this is the
    unit normalization step of request canonicalization.
    """
    if not isinstance(value, str):
        return _POSITIVE(value, field_name)
    text = value.strip()
    for suffix, scale in _FREQUENCY_SUFFIXES:
        if text.lower().endswith(suffix.lower()):
            try:
                return _POSITIVE(float(text[: -len(suffix)]) * scale, field_name)
            except ValueError:
                break
    try:
        return _POSITIVE(float(text), field_name)
    except ValueError:
        pass
    raise SchemaError(
        f"{field_name}: cannot parse frequency {value!r} "
        f"(use hertz, or a suffix like '500MHz' / '0.5GHz')"
    )


#: Built once: ``json.dumps`` with these options builds an encoder per call.
_CANONICAL_ENCODER = json.JSONEncoder(
    sort_keys=True, separators=(",", ":"), allow_nan=False, ensure_ascii=True
)


def canonical_json_bytes(payload: Mapping[str, object]) -> bytes:
    """The canonical serialization: sorted keys, no whitespace, ASCII."""
    return _CANONICAL_ENCODER.encode(payload).encode("ascii")


def canonical_fingerprint(canonical: Mapping[str, object]) -> str:
    """The fingerprint of a request's canonical dict.

    Equal to :meth:`_Request.fingerprint` of the request whose
    :meth:`~_Request.canonicalize` gave ``canonical``, for a caller
    that needs the dict too.
    """
    return fingerprint_bytes(canonical_json_bytes(canonical))


# ---------------------------------------------------------------------------
# The shared machinery of every wire type
# ---------------------------------------------------------------------------


class _Wire:
    """A v1 wire dataclass whose fields are declared with :func:`_field`
    and whose tables :func:`_wire_type` builds."""

    schema_version: ClassVar[int] = SCHEMA_VERSION
    _CHECKS: ClassVar[Tuple[Tuple[str, Check], ...]]
    _CANONICAL: ClassVar[Tuple[Tuple[str, Optional[Callable[[Any], object]]], ...]]
    _KNOWN: ClassVar[FrozenSet[str]]
    _REQUIRED: ClassVar[Tuple[str, ...]]
    #: Fields a payload may still carry that no longer mean anything.
    _RETIRED: ClassVar[FrozenSet[str]] = frozenset()

    def __post_init__(self) -> None:
        """Run every field's check; store what it returns (a float for a
        JSON integer, a tuple for a list, ``None`` for a ``0`` count)."""
        for name, check in self._CHECKS:
            value = getattr(self, name)
            stored = check(value, name)
            if stored is not value:
                object.__setattr__(self, name, stored)

    @classmethod
    def _wire_kwargs(cls, payload: Mapping[str, object]) -> Dict[str, Any]:
        """A payload's fields as constructor keywords, after the checks
        only a payload needs: a JSON object, a supported
        ``schema_version``, no unknown and no missing field."""
        if not isinstance(payload, Mapping):
            raise SchemaError(
                f"{cls.__name__}: expected a JSON object, got {payload!r}"
            )
        version = payload.get("schema_version", SCHEMA_VERSION)
        if isinstance(version, bool) or version != SCHEMA_VERSION:
            raise SchemaError(
                f"schema_version: unsupported value {version!r} "
                f"(this build speaks version {SCHEMA_VERSION})"
            )
        if not cls._KNOWN.issuperset(payload):
            unknown = sorted(set(payload) - cls._KNOWN)
            known = sorted(cls._KNOWN - {"schema_version"})
            raise SchemaError(
                f"{cls.__name__}: unknown field(s) "
                f"{', '.join(map(repr, unknown))}; known fields: {', '.join(known)}"
            )
        for name in cls._REQUIRED:
            if name not in payload:
                raise SchemaError(
                    f"{cls.__name__}: missing required field {name!r}"
                )
        kwargs = dict(payload)
        kwargs.pop("schema_version", None)
        return kwargs

    def canonicalize(self) -> Dict[str, object]:
        """The canonical plain-JSON form: sorted keys, defaults filled,
        values unit-normalized; byte-stable once serialized."""
        return {
            name: getattr(self, name) if form is None else form(getattr(self, name))
            for name, form in self._CANONICAL
        }

    def canonical_json(self) -> bytes:
        """Canonical bytes: two equal-meaning payloads serialize equal."""
        return canonical_json_bytes(self.canonicalize())


# ---------------------------------------------------------------------------
# Requests
# ---------------------------------------------------------------------------


_BACKEND = _choice(("numpy", "python"))


@dataclass(frozen=True)
class _Request(_Wire):
    """Shared problem/solve fields of every v1 request.

    The defaults are the paper's Table 2 baseline, mirroring
    :func:`repro.api.baseline_problem`; a canonical request always
    carries every field explicitly.  :meth:`problem` and
    :meth:`solve_kwargs` are the one translation from these fields to
    a solve, shared by the CLI and every service job.
    """

    node: str = _field("130nm", _choice(NODE_NAMES))
    gates: int = _field(1_000_000, _integer(1, MAX_GATES))
    clock_frequency: float = _field(BASELINE_CLOCK_HZ, _POSITIVE)
    repeater_fraction: float = _field(
        BASELINE_REPEATER_FRACTION, _number("in (0, 1]", lambda v: 0.0 < v <= 1.0)
    )
    permittivity: float = _field(BASELINE_PERMITTIVITY, _PERMITTIVITY)
    miller_factor: float = _field(BASELINE_MILLER, _POSITIVE)
    rent_exponent: float = _field(
        BASELINE_RENT_EXPONENT, _number("in (0, 1)", lambda v: 0.0 < v < 1.0)
    )
    local_pairs: int = _field(
        BASELINE_LOCAL_PAIRS, _integer(1, MAX_PAIRS_PER_TIER)
    )
    semi_global_pairs: int = _field(
        BASELINE_SEMI_GLOBAL_PAIRS, _integer(0, MAX_PAIRS_PER_TIER)
    )
    global_pairs: int = _field(
        BASELINE_GLOBAL_PAIRS, _integer(0, MAX_PAIRS_PER_TIER)
    )
    target_kind: str = _field("linear", _choice(("linear", "quadratic")))
    solver: str = _field("dp", _choice(SOLVERS))
    bunch_size: Optional[int] = _field(10_000, _count)
    max_groups: Optional[int] = _field(None, _count)
    repeater_units: int = _field(512, _integer(1, MAX_REPEATER_UNITS))
    #: Per-request wall-clock budget in seconds (``null`` = the
    #: service's default).
    deadline_s: Optional[float] = _field(None, _optional(_POSITIVE), transport=True)

    #: ``backend`` once chose between two DP kernels: validated, then
    #: ignored.
    _RETIRED: ClassVar[FrozenSet[str]] = frozenset({"backend"})

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.gates * self.repeater_units > MAX_GATE_UNITS:
            raise SchemaError(
                f"repeater_units: must be <= {MAX_GATE_UNITS // self.gates} "
                f"at {self.gates} gates, got {self.repeater_units!r}"
            )

    @classmethod
    def from_wire(cls: Type[T], payload: Mapping[str, object]) -> T:
        """Parse and validate a wire payload into a typed request.

        Beyond the payload checks, only spellings convert here: a
        frequency string becomes hertz, and so does each string of a
        clock sweep's ``values``.  Every value check is the
        constructor's.
        """
        kwargs = cls._wire_kwargs(payload)
        backend = kwargs.pop("backend", None)
        if backend is not None:
            _BACKEND(backend, "backend")
        if isinstance(kwargs.get("clock_frequency"), str):
            kwargs["clock_frequency"] = parse_frequency(
                kwargs["clock_frequency"], "clock_frequency"
            )
        values = kwargs.get("values")
        if kwargs.get("knob", "C") == "C" and isinstance(values, (list, tuple)):
            kwargs["values"] = [
                parse_frequency(v, f"values[{i}]") if isinstance(v, str) else v
                for i, v in enumerate(values)
            ]
        return cls(**kwargs)

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


@_wire_type
@dataclass(frozen=True)
class RankRequest(_Request):
    """``POST /v1/rank``: one rank computation."""


#: The :class:`RankRequest` field each sweep knob varies.
_KNOB_FIELDS = {
    "K": "permittivity",
    "M": "miller_factor",
    "C": "clock_frequency",
    "R": "repeater_fraction",
}


@_wire_type
@dataclass(frozen=True)
class SweepRequest(_Request):
    """``POST /v1/sweep``: one Table 4 knob swept over given values.

    ``allow_partial`` is transport-only: when the request deadline
    expires mid-sweep, ``True`` returns the completed prefix marked
    ``partial`` (and skips memoization), ``False`` answers 504.
    """

    knob: str = _field("C", _choice(SWEEP_KNOBS))
    values: Tuple[float, ...] = _field((), _list_of(_POSITIVE, "numbers"), list)
    allow_partial: bool = _field(True, _flag, transport=True)

    def point_request(self, value: float) -> RankRequest:
        """The :class:`RankRequest` of one sweep point.

        Sweep points share the service's *point-level* memo cache with
        plain ``/v1/rank`` traffic because both canonicalize to the
        same request.
        """
        kwargs = {name: getattr(self, name) for name, _ in RankRequest._CHECKS}
        kwargs[_KNOB_FIELDS[self.knob]] = float(value)
        return RankRequest(**kwargs)


@_wire_type
@dataclass(frozen=True)
class CornersRequest(_Request):
    """``POST /v1/corners``: sign-off rank across process corners.

    ``corners`` selects by name from the standard five-corner set
    (:data:`repro.analysis.corners.STANDARD_CORNERS`); empty means all.
    """

    corners: Tuple[str, ...] = _field((), _corner_selection, _standard_order)

    def selected_corner_names(self) -> Tuple[str, ...]:
        """Requested corners in standard-set order (empty = all)."""
        return tuple(_standard_order(self.corners))


@_wire_type
@dataclass(frozen=True)
class OptimizeRequest(_Request):
    """``POST /v1/optimize``: architecture search over a design space.

    The candidate lists are sets: their canonical form is sorted and
    free of duplicates (counts ascending, materials descending).
    """

    local_pairs_choices: Tuple[int, ...] = _field(
        (1, 2), _list_of(_integer(1, MAX_PAIRS_PER_TIER), "integers"), _ascending_set
    )
    semi_global_pairs_choices: Tuple[int, ...] = _field(
        (1, 2, 3), _list_of(_integer(0, MAX_PAIRS_PER_TIER), "integers"), _ascending_set
    )
    global_pairs_choices: Tuple[int, ...] = _field(
        (1, 2), _list_of(_integer(0, MAX_PAIRS_PER_TIER), "integers"), _ascending_set
    )
    permittivities: Tuple[float, ...] = _field(
        (3.9, 3.6, 2.8), _list_of(_PERMITTIVITY, "numbers"), _descending_set
    )
    miller_factors: Tuple[float, ...] = _field(
        (2.0, 1.0), _list_of(_POSITIVE, "numbers"), _descending_set
    )
    max_metal_layers: int = _field(12, _integer(2))
    exhaustive_limit: int = _field(128, _integer(1))

    def design_space(self, node: TechnologyNode) -> DesignSpace:
        """The candidate architectures to search, built on ``node``."""
        # Deferred: repro.optimize loads repro.analysis (see
        # _standard_corner_names).
        from .optimize.space import DesignSpace

        return DesignSpace(
            node=node,
            local_pairs=self.local_pairs_choices,
            semi_global_pairs=self.semi_global_pairs_choices,
            global_pairs=self.global_pairs_choices,
            permittivities=self.permittivities,
            miller_factors=self.miller_factors,
            max_metal_layers=self.max_metal_layers,
        )

    def solve_kwargs(self) -> Dict[str, Any]:
        """Keywords for :func:`repro.api.optimize_rank`: the search
        bound plus every candidate's :func:`repro.api.compute_rank`
        keywords."""
        return dict(super().solve_kwargs(), exhaustive_limit=self.exhaustive_limit)


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


@_wire_type
@dataclass(frozen=True)
class RankResponse(_Wire):
    """Wire form of one rank result.

    Deliberately deterministic: no timing or cache metadata lives in
    the body (those travel as HTTP headers), so a memoized replay is
    byte-identical to the original response.
    """

    fingerprint: str = _field(MISSING, _text)
    rank: int = _field(MISSING, _NON_NEGATIVE)
    normalized: float = _field(MISSING, _FINITE)
    total_wires: int = _field(MISSING, _NON_NEGATIVE)
    fits: bool = _field(MISSING, _flag)
    error_bound: int = _field(MISSING, _NON_NEGATIVE)
    solver: str = _field(MISSING, _text)

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
        return cls(**cls._wire_kwargs(payload))

    def to_wire(self) -> Dict[str, object]:
        """Plain-JSON payload, canonical key order."""
        return self.canonicalize()


__all__ = [
    "SCHEMA_VERSION",
    "SWEEP_KNOBS",
    "REQUEST_TYPES",
    "RankRequest",
    "SweepRequest",
    "CornersRequest",
    "OptimizeRequest",
    "RankResponse",
    "canonical_fingerprint",
    "canonical_json_bytes",
    "fingerprint_bytes",
    "parse_frequency",
]
