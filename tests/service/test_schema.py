"""The v1 wire schema: validation, canonicalization, fingerprints."""

import dataclasses
import json

import pytest

from repro.errors import ReproError, SchemaError
from repro.reporting import load_request, save_request
from repro.schema import (
    MAX_GATES,
    MAX_PAIRS_PER_TIER,
    MAX_REPEATER_UNITS,
    REQUEST_TYPES,
    SCHEMA_VERSION,
    CornersRequest,
    OptimizeRequest,
    RankRequest,
    RankResponse,
    SweepRequest,
    canonical_json_bytes,
    parse_frequency,
)


class TestParseFrequency:
    def test_number_passes_through(self):
        assert parse_frequency(5e8) == 5e8

    @pytest.mark.parametrize(
        "text,expected",
        [
            ("500MHz", 5e8),
            ("0.5GHz", 5e8),
            ("500 MHz", 5e8),
            ("1.2GHz", 1.2e9),
            ("250000kHz", 2.5e8),
            ("5e8", 5e8),
            ("5e8Hz", 5e8),
        ],
    )
    def test_suffixed_spellings(self, text, expected):
        assert parse_frequency(text) == pytest.approx(expected)

    @pytest.mark.parametrize("bad", ["fast", "", "MHz", "-500MHz", "0GHz", None])
    def test_rejects_garbage(self, bad):
        with pytest.raises(SchemaError):
            parse_frequency(bad)


class TestRankRequest:
    def test_defaults_are_the_paper_baseline(self):
        request = RankRequest()
        assert request.node == "130nm"
        assert request.gates == 1_000_000
        assert request.clock_frequency == pytest.approx(5e8)
        assert request.solver == "dp"

    def test_from_wire_round_trips_canonically(self):
        wire = {"gates": 50_000, "clock_frequency": "500MHz"}
        request = RankRequest.from_wire(wire)
        canonical = request.canonicalize()
        again = RankRequest.from_wire(canonical)
        assert again == request
        assert again.canonical_json() == request.canonical_json()

    def test_equal_meaning_equal_fingerprint(self):
        spelled = RankRequest.from_wire({"clock_frequency": "500MHz"})
        numeric = RankRequest.from_wire({"clock_frequency": 5e8})
        assert spelled.fingerprint() == numeric.fingerprint()

    def test_transport_fields_do_not_fragment_the_fingerprint(self):
        plain = RankRequest()
        with_transport = RankRequest.from_wire(
            {"deadline_s": 5.0, "backend": "python"}
        )
        assert plain.fingerprint() == with_transport.fingerprint()
        assert "deadline_s" not in plain.canonicalize()
        assert "backend" not in plain.canonicalize()

    def test_unknown_field_rejected_by_name(self):
        with pytest.raises(SchemaError, match="gatez"):
            RankRequest.from_wire({"gatez": 10})

    def test_wrong_schema_version_rejected(self):
        with pytest.raises(SchemaError, match="schema_version"):
            RankRequest.from_wire({"schema_version": 99})

    def test_missing_schema_version_means_current(self):
        request = RankRequest.from_wire({})
        assert request.canonicalize()["schema_version"] == SCHEMA_VERSION

    @pytest.mark.parametrize(
        "field,value",
        [
            ("gates", 0),
            ("gates", -1),
            ("clock_frequency", 0),
            ("repeater_fraction", 1.5),
            ("permittivity", 0.5),
            ("solver", "exhaustive"),
            ("local_pairs", -1),
            ("repeater_units", 0),
        ],
    )
    def test_invalid_values_rejected(self, field, value):
        with pytest.raises(SchemaError, match=field):
            RankRequest.from_wire({field: value})

    @pytest.mark.parametrize(
        "field,payload",
        [
            ("gates", {"gates": 10**30}),
            ("gates", {"gates": MAX_GATES + 1}),
            ("repeater_units", {"repeater_units": 10**12}),
            ("repeater_units", {"repeater_units": MAX_REPEATER_UNITS + 1}),
            ("repeater_units", {"gates": MAX_GATES, "repeater_units": 1024}),
            ("local_pairs", {"local_pairs": 100_000_000}),
            ("local_pairs", {"local_pairs": MAX_PAIRS_PER_TIER + 1}),
            ("semi_global_pairs", {"semi_global_pairs": MAX_PAIRS_PER_TIER + 1}),
            ("global_pairs", {"global_pairs": MAX_PAIRS_PER_TIER + 1}),
            ("semi_global_pairs", {"semi_global_pairs": -1}),
            ("global_pairs", {"global_pairs": -1}),
        ],
    )
    def test_oversized_values_rejected_by_name(self, field, payload):
        with pytest.raises(SchemaError, match=f"^{field}: must be"):
            RankRequest.from_wire(payload)
        with pytest.raises(SchemaError, match=field):
            RankRequest(**payload)

    def test_caps_admit_every_documented_size(self):
        """The caps only reject: the benchmark's and the CLI's sizes
        parse, with the same fingerprint as before the caps existed."""
        for payload in (
            {"gates": 2_000_000, "repeater_units": 512},
            {"gates": MAX_GATES, "repeater_units": 512},
            {"gates": 1_000_000, "repeater_units": MAX_REPEATER_UNITS},
            {"local_pairs": MAX_PAIRS_PER_TIER,
             "semi_global_pairs": MAX_PAIRS_PER_TIER,
             "global_pairs": MAX_PAIRS_PER_TIER},
            {"local_pairs": 1, "semi_global_pairs": 0, "global_pairs": 0},
        ):
            request = RankRequest.from_wire(payload)
            assert RankRequest(**payload).fingerprint() == request.fingerprint()
        assert RankRequest.from_wire({}).fingerprint() == (
            RankRequest().fingerprint()
        )

    def test_bunch_size_zero_and_none_canonicalize_alike(self):
        off = RankRequest.from_wire({"bunch_size": 0})
        none = RankRequest.from_wire({"bunch_size": None})
        assert off.fingerprint() == none.fingerprint()
        assert off.bunch_size is None

    def test_canonical_json_is_sorted_and_compact(self):
        body = RankRequest().canonical_json()
        payload = json.loads(body)
        assert list(payload) == sorted(payload)
        assert b" " not in body


class TestRetiredBackendField:
    """``backend`` once chose the DP kernel.  There is one kernel now,
    but v1 requests carrying the field stay valid: a known value or
    ``null`` is ignored, anything else is still a schema error."""

    @pytest.mark.parametrize("value", ["numpy", "python", None])
    def test_accepted_and_ignored(self, value):
        with_field = RankRequest.from_wire({"gates": 50_000, "backend": value})
        without = RankRequest.from_wire({"gates": 50_000})
        assert with_field == without
        assert with_field.fingerprint() == without.fingerprint()
        assert with_field.canonical_json() == without.canonical_json()

    def test_unknown_value_rejected_by_name(self):
        with pytest.raises(SchemaError, match="backend"):
            RankRequest.from_wire({"backend": "fortran"})

    def test_request_dataclasses_drop_the_attribute(self):
        for cls in REQUEST_TYPES.values():
            assert "backend" not in {f.name for f in dataclasses.fields(cls)}
        with pytest.raises(TypeError, match="backend"):
            RankRequest(backend="numpy")


class TestSweepRequest:
    def test_point_request_maps_the_knob(self):
        sweep = SweepRequest(knob="K", values=(3.9, 2.8), gates=10_000)
        point = sweep.point_request(2.8)
        assert isinstance(point, RankRequest)
        assert point.permittivity == 2.8
        assert point.gates == 10_000

    def test_point_request_matches_direct_rank_request(self):
        sweep = SweepRequest(knob="C", values=(4e8,), gates=10_000)
        direct = RankRequest(clock_frequency=4e8, gates=10_000)
        assert sweep.point_request(4e8).fingerprint() == direct.fingerprint()

    def test_clock_values_accept_suffixed_spellings(self):
        sweep = SweepRequest.from_wire(
            {"knob": "C", "values": ["400MHz", 5e8]}
        )
        assert sweep.values == (4e8, 5e8)

    def test_empty_values_rejected(self):
        with pytest.raises(SchemaError, match="values"):
            SweepRequest.from_wire({"knob": "C", "values": []})

    def test_unknown_knob_rejected(self):
        with pytest.raises(SchemaError, match="knob"):
            SweepRequest.from_wire({"knob": "Z", "values": [1.0]})

    def test_allow_partial_is_transport_only(self):
        a = SweepRequest(knob="R", values=(0.3,), allow_partial=True)
        b = SweepRequest(knob="R", values=(0.3,), allow_partial=False)
        assert a.fingerprint() == b.fingerprint()


class TestCornersRequest:
    def test_empty_selection_means_all_standard_corners(self):
        request = CornersRequest()
        names = request.selected_corner_names()
        assert "nominal" in names
        assert len(names) >= 5

    def test_selection_canonicalizes_to_standard_order(self):
        forward = CornersRequest(corners=("nominal", "fast-clock"))
        backward = CornersRequest(corners=("fast-clock", "nominal"))
        assert forward.fingerprint() == backward.fingerprint()

    def test_unknown_corner_rejected(self):
        with pytest.raises(SchemaError, match="corners"):
            CornersRequest(corners=("sideways",))

    def test_duplicate_corners_rejected(self):
        with pytest.raises(SchemaError, match="duplicate"):
            CornersRequest(corners=("nominal", "nominal"))


class TestOptimizeRequest:
    def test_choice_lists_canonicalize_as_sets(self):
        a = OptimizeRequest(permittivities=(3.9, 2.8), miller_factors=(2.0, 1.0))
        b = OptimizeRequest(permittivities=(2.8, 3.9, 3.9), miller_factors=(1.0, 2.0))
        assert a.fingerprint() == b.fingerprint()

    def test_empty_choices_rejected(self):
        with pytest.raises(SchemaError, match="permittivities"):
            OptimizeRequest.from_wire({"permittivities": []})


class TestRankResponse:
    def test_wire_round_trip(self):
        response = RankResponse(
            fingerprint="ab" * 32,
            rank=64_009,
            normalized=0.4324,
            total_wires=148_021,
            fits=True,
            error_bound=2_000,
            solver="dp",
        )
        wire = response.to_wire()
        assert wire["schema_version"] == SCHEMA_VERSION
        assert RankResponse.from_wire(wire) == response

    def test_no_timing_or_cache_metadata_in_body(self):
        wire = RankResponse(
            fingerprint="f" * 64, rank=1, normalized=0.5, total_wires=2,
            fits=True, error_bound=0, solver="dp",
        ).to_wire()
        for forbidden in ("elapsed", "cached", "runtime", "timestamp"):
            assert not any(forbidden in key for key in wire)

    def test_missing_field_rejected_by_name(self):
        with pytest.raises(SchemaError, match="rank"):
            RankResponse.from_wire({"schema_version": 1, "fingerprint": "x"})


class TestRequestTypes:
    def test_covers_every_solve_endpoint(self):
        assert sorted(REQUEST_TYPES) == ["corners", "optimize", "rank", "sweep"]

    def test_all_types_are_frozen(self):
        for request_type in REQUEST_TYPES.values():
            with pytest.raises(dataclasses.FrozenInstanceError):
                instance = request_type.__new__(request_type)
                object.__setattr__(instance, "node", "130nm")
                instance.node = "90nm"


class TestCanonicalJsonBytes:
    def test_deterministic_across_key_order(self):
        a = canonical_json_bytes({"b": 1, "a": 2})
        b = canonical_json_bytes({"a": 2, "b": 1})
        assert a == b

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            canonical_json_bytes({"x": float("nan")})


class TestPersistence:
    def test_save_load_round_trip(self, tmp_path):
        request = SweepRequest(knob="C", values=(4e8, 5e8), gates=25_000)
        path = tmp_path / "request.json"
        save_request(request, path)
        loaded = load_request(path)
        assert isinstance(loaded, SweepRequest)
        assert loaded.fingerprint() == request.fingerprint()

    def test_persisted_form_is_canonical(self, tmp_path):
        request = RankRequest.from_wire({"clock_frequency": "500MHz"})
        path = tmp_path / "request.json"
        save_request(request, path)
        payload = json.loads(path.read_text())
        assert payload["format"] == "repro.request"
        assert payload["kind"] == "rank"
        assert payload["request"] == request.canonicalize()

    def test_save_rejects_non_request(self, tmp_path):
        with pytest.raises(ReproError, match="request type"):
            save_request({"gates": 1}, tmp_path / "x.json")

    def test_load_rejects_unknown_kind(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "format": "repro.request", "version": 1,
            "kind": "frobnicate", "request": {},
        }))
        with pytest.raises(ReproError, match="frobnicate"):
            load_request(path)

    def test_load_revalidates_payload(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "format": "repro.request", "version": 1,
            "kind": "rank", "request": {"gates": -1},
        }))
        with pytest.raises(ReproError, match="gates"):
            load_request(path)
