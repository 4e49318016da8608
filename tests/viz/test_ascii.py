"""Unit tests for ASCII chart rendering."""

import numpy as np
import pytest

from repro.viz import bar_chart, histogram, sparkline


class TestSparkline:
    def test_length_preserved(self):
        assert len(sparkline([1, 2, 3, 4])) == 4

    def test_extremes(self):
        s = sparkline([0, 0, 10])
        assert s[-1] == "█"
        assert s[0] == s[1]

    def test_constant_series(self):
        s = sparkline([5, 5, 5])
        assert len(set(s)) == 1

    def test_empty(self):
        assert sparkline([]) == ""


class TestBarChart:
    def test_rows_and_alignment(self):
        out = bar_chart(["a", "bb"], [1.0, 2.0], width=10)
        lines = out.splitlines()
        assert len(lines) == 2
        assert lines[0].startswith(" a |")
        assert lines[1].startswith("bb |")

    def test_bar_lengths_proportional(self):
        out = bar_chart(["x", "y"], [1.0, 2.0], width=10)
        x_len = out.splitlines()[0].count("#")
        y_len = out.splitlines()[1].count("#")
        assert y_len == 10 and x_len == 5

    def test_mismatch_rejected(self):
        with pytest.raises(ValueError):
            bar_chart(["a"], [1.0, 2.0])

    def test_unit_suffix(self):
        assert "3%" in bar_chart(["a"], [3.0], unit="%")

    def test_empty(self):
        assert bar_chart([], []) == ""


class TestHistogram:
    def test_counts_sum(self):
        rng = np.random.default_rng(1)
        x = rng.exponential(10, 100)
        out = histogram(x, bins=5)
        assert len(out.splitlines()) == 5

    def test_log_bins(self):
        x = [1.0, 10.0, 100.0, 1000.0]
        out = histogram(x, bins=3, log_bins=True)
        assert len(out.splitlines()) == 3

    def test_empty(self):
        assert histogram([]) == "(empty)"
