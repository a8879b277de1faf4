"""Tests for WLD persistence."""

import pytest

from repro.errors import WLDError
from repro.wld.distribution import WireLengthDistribution
from repro.wld.io import load_wld_csv, save_wld_csv


@pytest.fixture
def wld():
    return WireLengthDistribution.from_groups(
        [(123.456, 7), (50.0, 100), (1.0, 9999)]
    )


class TestCSV:
    def test_round_trip(self, wld, tmp_path):
        path = tmp_path / "wld.csv"
        save_wld_csv(wld, path)
        loaded = load_wld_csv(path)
        assert (loaded.lengths == wld.lengths).all()
        assert (loaded.counts == wld.counts).all()

    def test_header_written(self, wld, tmp_path):
        path = tmp_path / "wld.csv"
        save_wld_csv(wld, path)
        assert path.read_text().splitlines()[0] == "length,count"

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("len,cnt\n1.0,2\n")
        with pytest.raises(WLDError, match="header"):
            load_wld_csv(path)

    def test_bad_row_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("length,count\n1.0,2,3\n")
        with pytest.raises(WLDError):
            load_wld_csv(path)

    def test_non_numeric_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("length,count\nabc,2\n")
        with pytest.raises(WLDError):
            load_wld_csv(path)

    def test_empty_body_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("length,count\n")
        with pytest.raises(WLDError):
            load_wld_csv(path)

    def test_float_precision_preserved(self, tmp_path):
        wld = WireLengthDistribution.from_groups([(1.0000001, 1), (1.0, 1)])
        path = tmp_path / "precise.csv"
        save_wld_csv(wld, path)
        loaded = load_wld_csv(path)
        assert loaded.num_groups == 2
