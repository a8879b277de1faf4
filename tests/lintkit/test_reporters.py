"""Reporter output: the JSON schema is a stable contract (CI uploads it
as an artifact), the text reporter is the human gate output."""

import json

from repro.lintkit.context import Finding
from repro.lintkit.reporters import JSON_SCHEMA_VERSION, render_json, render_text

F1 = Finding("src/a.py", 3, 4, "RPL001", "msg one")
F2 = Finding("src/b.py", 7, 0, "RPL003", "msg two")


class TestJSONSchema:
    def payload(self):
        return json.loads(render_json([F1, F2], files=5))

    def test_top_level_keys(self):
        payload = self.payload()
        assert set(payload) == {"version", "tool", "findings", "summary"}
        assert payload["version"] == JSON_SCHEMA_VERSION == 2
        assert payload["tool"] == "repro.lintkit"

    def test_finding_entries(self):
        payload = self.payload()
        assert payload["findings"][0] == {
            "code": "RPL001",
            "path": "src/a.py",
            "line": 3,
            "col": 4,
            "message": "msg one",
        }

    def test_summary_accounting(self):
        summary = self.payload()["summary"]
        assert summary == {
            "files": 5,
            "total": 2,
            "new": 2,
            "by_code": {"RPL001": 1, "RPL003": 1},
        }

    def test_stale_baseline_section(self):
        # Schema version 2 dropped the baseline fields.
        payload = self.payload()
        assert "stale_baseline" not in payload
        assert "baselined" not in payload["summary"]

    def test_clean_run(self):
        payload = json.loads(render_json([], files=3))
        assert payload["findings"] == []
        assert payload["summary"]["total"] == 0


class TestText:
    def test_one_line_per_finding_plus_summary(self):
        report = render_text([F1, F2], files=5)
        assert report.splitlines() == [
            "src/a.py:3:5: RPL001 msg one",
            "src/b.py:7:1: RPL003 msg two",
            "2 finding(s) in 5 file(s) [RPL001: 1, RPL003: 1]",
        ]

    def test_clean_summary(self):
        report = render_text([], files=7)
        assert report == "0 finding(s) in 7 file(s)"
