"""Tracing spans, the Chrome trace-event file, and its validator."""

import json

import pytest

from repro import obs
from repro.obs.trace import (
    _NULL_SPAN,
    events,
    span,
    validate_trace,
    write_trace,
)


class TestSpan:
    def test_disabled_span_is_shared_noop(self):
        assert span("anything") is _NULL_SPAN
        with span("anything"):
            pass
        assert events() == []

    def test_enabled_span_records_complete_event(self):
        obs.enable(trace_events=True)
        with span("unit_of_work", detail=7):
            pass
        obs.disable()
        (event,) = events()
        assert event["name"] == "unit_of_work"
        assert event["ph"] == "X"
        assert event["cat"] == "repro"
        assert event["dur"] >= 0
        assert event["args"] == {"detail": 7}
        assert isinstance(event["pid"], int)
        assert isinstance(event["tid"], int)

    def test_span_records_exception_type(self):
        obs.enable(trace_events=True)
        with pytest.raises(ValueError):
            with span("failing"):
                raise ValueError("boom")
        obs.disable()
        (event,) = events()
        assert event["args"]["error"] == "ValueError"

    def test_metrics_only_span_feeds_timer_not_events(self):
        obs.enable()  # metrics on, tracing off
        with span("timed_region"):
            pass
        obs.disable()
        assert events() == []
        timers = obs.snapshot()["timers"]
        assert timers["span.timed_region_s"]["count"] == 1

    def test_buffer_cap_counts_drops(self, monkeypatch, tmp_path):
        import repro.obs.trace as trace_mod

        monkeypatch.setattr(trace_mod, "MAX_EVENTS", 2)
        obs.enable(trace_events=True)
        for _ in range(4):
            with span("s"):
                pass
        obs.disable()
        assert len(events()) == 2
        out = tmp_path / "trace.json"
        write_trace(out)
        assert json.loads(out.read_text())["otherData"]["events_dropped"] == 2


class TestWriteAndValidate:
    def test_roundtrip_validates_clean(self, tmp_path):
        obs.enable(trace_events=True)
        with span("outer"):
            with span("inner"):
                pass
        obs.disable()
        out = tmp_path / "trace.json"
        count = write_trace(out)
        assert count == 2
        payload = json.loads(out.read_text())
        assert validate_trace(payload) == []
        assert payload["displayTimeUnit"] == "ms"
        assert payload["otherData"]["events_dropped"] == 0
        assert "metrics" in payload

    def test_write_trace_merges_extra_other_data(self, tmp_path):
        out = tmp_path / "trace.json"
        write_trace(out, extra={"run": "bench"})
        payload = json.loads(out.read_text())
        assert payload["otherData"]["run"] == "bench"

    def test_validator_rejects_malformed_events(self):
        assert validate_trace([]) != []
        assert validate_trace({"traceEvents": "nope"}) != []
        bad_phase = {"traceEvents": [
            {"name": "e", "ph": "Q", "ts": 0, "pid": 1, "tid": 1}
        ]}
        assert any("phase" in p for p in validate_trace(bad_phase))
        missing_dur = {"traceEvents": [
            {"name": "e", "ph": "X", "ts": 0, "pid": 1, "tid": 1}
        ]}
        assert any("dur" in p for p in validate_trace(missing_dur))
        bad_ts = {"traceEvents": [
            {"name": "e", "ph": "i", "ts": -5, "pid": 1, "tid": 1}
        ]}
        assert any("ts" in p for p in validate_trace(bad_ts))

    def test_validator_accepts_events_emitted_by_spans(self):
        obs.enable(trace_events=True)
        with span("a", key="value"):
            pass
        obs.disable()
        assert validate_trace({"traceEvents": events()}) == []
