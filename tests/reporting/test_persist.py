"""Tests for the rank-result JSON round trip that checkpoints use."""

import json

import pytest

from repro.core.rank import compute_rank
from repro.errors import ReproError
from repro.reporting.persist import rank_result_from_dict, rank_result_to_dict


@pytest.fixture
def result(tiny_problem):
    return compute_rank(tiny_problem, collect_witness=True)


def json_round_trip(result):
    return rank_result_from_dict(json.loads(json.dumps(rank_result_to_dict(result))))


class TestRankResultRoundTrip:
    def test_full_round_trip(self, result):
        loaded = json_round_trip(result)
        assert loaded.rank == result.rank
        assert loaded.normalized == pytest.approx(result.normalized)
        assert loaded.fits == result.fits
        assert loaded.solver == result.solver
        assert loaded.stats.runtime_seconds == pytest.approx(
            result.stats.runtime_seconds
        )

    def test_witness_round_trip(self, result):
        loaded = json_round_trip(result)
        if result.witness is None:
            assert loaded.witness is None
        else:
            assert loaded.witness == result.witness

    def test_no_witness(self, tiny_problem):
        bare = compute_rank(tiny_problem)
        assert json_round_trip(bare).witness is None

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

    def test_missing_field_rejected(self, result):
        payload = rank_result_to_dict(result)
        del payload["rank"]
        with pytest.raises(ReproError, match="malformed"):
            rank_result_from_dict(payload)
