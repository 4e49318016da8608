"""Unit tests for the predictor tuning script's series table."""

import pytest

from benchmarks.ext.predictor_tuning import series_table


class TestSeriesTable:
    def test_alignment_and_rows(self):
        out = series_table({"a": [1.0, 2.0], "b": [3.0, 4.0]},
                           index=["x", "y"])
        lines = out.splitlines()
        assert len(lines) == 3
        assert "a" in lines[0] and "b" in lines[0]
        assert lines[1].strip().startswith("x")

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            series_table({"a": [1.0], "b": [1.0, 2.0]})

    def test_empty(self):
        assert series_table({}) == ""
