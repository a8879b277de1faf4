"""Tests for experiment persistence."""

import json

import pytest

from repro.core.rank import compute_rank
from repro.errors import ReproError
from repro.reporting.persist import (
    load_rank_result,
    load_sweep,
    rank_result_from_dict,
    rank_result_to_dict,
    save_rank_result,
    save_sweep,
)


@pytest.fixture
def result(tiny_problem):
    return compute_rank(tiny_problem, collect_witness=True)


class TestRankResultRoundTrip:
    def test_full_round_trip(self, result, tmp_path):
        path = tmp_path / "result.json"
        save_rank_result(result, path)
        loaded = load_rank_result(path)
        assert loaded.rank == result.rank
        assert loaded.normalized == pytest.approx(result.normalized)
        assert loaded.fits == result.fits
        assert loaded.solver == result.solver
        assert loaded.stats.runtime_seconds == pytest.approx(
            result.stats.runtime_seconds
        )

    def test_witness_round_trip(self, result, tmp_path):
        path = tmp_path / "result.json"
        save_rank_result(result, path)
        loaded = load_rank_result(path)
        if result.witness is None:
            assert loaded.witness is None
        else:
            assert loaded.witness == result.witness

    def test_no_witness(self, tiny_problem, tmp_path):
        bare = compute_rank(tiny_problem)
        path = tmp_path / "bare.json"
        save_rank_result(bare, path)
        assert load_rank_result(path).witness is None

    def test_stats_backend_from_older_files_loads(self, result):
        """Files written while a ``backend`` option existed carry
        ``stats.backend``; they still load, to the same result."""
        payload = rank_result_to_dict(result)
        assert "backend" not in payload["stats"]
        payload["stats"]["backend"] = "python"
        loaded = rank_result_from_dict(payload)
        assert loaded == rank_result_from_dict(rank_result_to_dict(result))
        assert loaded.stats == result.stats
        assert loaded.witness == result.witness

    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"format": "something-else", "version": 1}))
        with pytest.raises(ReproError, match="not a rank-result"):
            load_rank_result(path)

    def test_wrong_version_rejected(self, result, tmp_path):
        path = tmp_path / "result.json"
        save_rank_result(result, path)
        payload = json.loads(path.read_text())
        payload["version"] = 99
        path.write_text(json.dumps(payload))
        with pytest.raises(ReproError, match="version"):
            load_rank_result(path)

    def test_missing_field_rejected(self, result, tmp_path):
        path = tmp_path / "result.json"
        save_rank_result(result, path)
        payload = json.loads(path.read_text())
        del payload["result"]["rank"]
        path.write_text(json.dumps(payload))
        with pytest.raises(ReproError, match="malformed"):
            load_rank_result(path)


class TestSweepRoundTrip:
    def test_round_trip(self, small_baseline, tmp_path):
        from repro.analysis.sweep import sweep_repeater_fraction

        sweep = sweep_repeater_fraction(
            small_baseline, values=[0.2, 0.4], bunch_size=2000, repeater_units=64
        )
        path = tmp_path / "sweep.json"
        save_sweep(sweep, path)
        loaded = load_sweep(path)
        assert loaded.name == sweep.name
        assert loaded.values() == sweep.values()
        assert loaded.normalized_ranks() == pytest.approx(
            sweep.normalized_ranks()
        )
        assert loaded.paper_ranks() == sweep.paper_ranks()

    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps({"format": "nope", "version": 1}))
        with pytest.raises(ReproError, match="not a sweep"):
            load_sweep(path)


class TestAtomicWrites:
    """All persistence goes through write_json_atomic: temp file plus
    os.replace, so a crash mid-write never corrupts an existing file."""

    def test_no_tmp_file_left_behind(self, result, tmp_path):
        import os

        from repro.reporting.persist import write_json_atomic

        save_rank_result(result, tmp_path / "result.json")
        write_json_atomic({"k": 1}, tmp_path / "raw.json")
        assert sorted(os.listdir(tmp_path)) == ["raw.json", "result.json"]

    def test_failed_write_preserves_existing_file(self, tmp_path):
        from repro.reporting.persist import write_json_atomic

        path = tmp_path / "data.json"
        write_json_atomic({"generation": 1}, path)
        with pytest.raises(TypeError):
            write_json_atomic({"bad": object()}, path)  # not JSON-serializable
        # Original content survives, and no temp file is left behind.
        assert json.loads(path.read_text()) == {"generation": 1}
        assert list(tmp_path.iterdir()) == [path]

    def test_read_versioned_json_validates(self, tmp_path):
        from repro.reporting.persist import (
            FORMAT_VERSION,
            read_versioned_json,
            write_json_atomic,
        )

        path = tmp_path / "data.json"
        with pytest.raises(ReproError):
            read_versioned_json(path, "repro.rank_result")  # missing file
        path.write_text("{nope")
        with pytest.raises(ReproError):
            read_versioned_json(path, "repro.rank_result")  # invalid JSON
        path.write_text("[1, 2]")
        with pytest.raises(ReproError):
            read_versioned_json(path, "repro.rank_result")  # not an object
        write_json_atomic(
            {"format": "repro.rank_result", "version": FORMAT_VERSION + 1},
            path,
        )
        with pytest.raises(ReproError, match="version"):
            read_versioned_json(path, "repro.rank_result")

    def test_sweep_failures_round_trip(self, small_baseline, tmp_path):
        import repro.analysis.sweep as sweep_mod
        from repro.analysis.sweep import run_sweep
        from repro.errors import RankComputationError

        real = sweep_mod.compute_rank
        state = {"calls": 0}

        def flaky(problem, **kwargs):
            state["calls"] += 1
            if state["calls"] == 2:
                raise RankComputationError("injected")
            return real(problem, **kwargs)

        sweep_mod.compute_rank = flaky
        try:
            sweep = run_sweep(
                "R",
                [0.2, 0.3, 0.4],
                small_baseline.with_repeater_fraction,
                keep_going=True,
                bunch_size=2000,
                repeater_units=128,
            )
        finally:
            sweep_mod.compute_rank = real
        path = tmp_path / "sweep.json"
        save_sweep(sweep, path)
        loaded = load_sweep(path)
        assert loaded.values() == sweep.values()
        assert len(loaded.failures) == 1
        assert loaded.failures[0].key == sweep.failures[0].key
        assert loaded.failures[0].error_type == "RankComputationError"
