"""Unit tests for temporal, spatial, and causality filtering."""

import pytest

from repro.core.events import fatal_event_table
from repro.core.filtering import (
    CausalityFilter,
    FilterChain,
    SpatialFilter,
    TemporalFilter,
)
from tests.core.filtering_reference import (
    ReferenceCausalityFilter,
    ReferenceSpatialFilter,
    ReferenceTemporalFilter,
)
from tests.core.helpers import ras


def table(rows):
    return fatal_event_table(ras(rows))


class TestTemporalFilter:
    def test_same_location_chain_collapsed(self):
        t = table(
            [
                (1, "A", "FATAL", 0.0, "R00-M0"),
                (2, "A", "FATAL", 100.0, "R00-M0"),
                (3, "A", "FATAL", 250.0, "R00-M0"),
                (4, "A", "FATAL", 1000.0, "R00-M0"),
            ]
        )
        out = TemporalFilter(threshold=300.0).apply(t)
        assert list(out.frame["event_time"]) == [0.0, 1000.0]

    def test_chain_semantics_extend_window(self):
        """Events 250 s apart each: the chain keeps suppressing even
        past the first event's window."""
        rows = [(i, "A", "FATAL", i * 250.0, "R00-M0") for i in range(10)]
        out = TemporalFilter(threshold=300.0).apply(table(rows))
        assert len(out) == 1

    @pytest.mark.parametrize("make", [TemporalFilter, ReferenceTemporalFilter])
    def test_dropped_events_extend_suppression_window(self, make):
        """Regression for the mislabeled chain semantics: N events each
        threshold−ε apart collapse to exactly 1, because every *dropped*
        event still extends the suppression window — the filter does NOT
        measure from the previous kept event (that would keep every
        second one)."""
        eps = 1.0
        rows = [
            (i, "A", "FATAL", i * (300.0 - eps), "R00-M0") for i in range(20)
        ]
        out = make(threshold=300.0).apply(table(rows))
        assert len(out) == 1
        assert out.frame["event_id"][0] == 0

    def test_different_locations_not_collapsed(self):
        t = table(
            [
                (1, "A", "FATAL", 0.0, "R00-M0"),
                (2, "A", "FATAL", 10.0, "R00-M1"),
            ]
        )
        assert len(TemporalFilter(threshold=300.0).apply(t)) == 2

    def test_different_errcodes_not_collapsed(self):
        t = table(
            [
                (1, "A", "FATAL", 0.0, "R00-M0"),
                (2, "B", "FATAL", 10.0, "R00-M0"),
            ]
        )
        assert len(TemporalFilter(threshold=300.0).apply(t)) == 2

    def test_empty(self):
        assert len(TemporalFilter().apply(table([]))) == 0


class TestSpatialFilter:
    def test_fanout_across_locations_collapsed(self):
        rows = [
            (i, "A", "FATAL", float(i), f"R00-M0-N{i:02d}") for i in range(10)
        ]
        out = SpatialFilter(threshold=300.0).apply(table(rows))
        assert len(out) == 1
        assert out.frame["event_time"][0] == 0.0  # earliest kept

    def test_gap_larger_than_threshold_splits(self):
        t = table(
            [
                (1, "A", "FATAL", 0.0, "R00-M0"),
                (2, "A", "FATAL", 100.0, "R10-M1"),
                (3, "A", "FATAL", 10000.0, "R20-M0"),
            ]
        )
        out = SpatialFilter(threshold=300.0).apply(t)
        assert list(out.frame["event_time"]) == [0.0, 10000.0]

    def test_types_independent(self):
        t = table(
            [
                (1, "A", "FATAL", 0.0, "R00-M0"),
                (2, "B", "FATAL", 1.0, "R10-M0"),
            ]
        )
        assert len(SpatialFilter().apply(t)) == 2


class TestCausalityFilter:
    def _cascade_rows(self, n_bursts=5):
        rows = []
        rid = 0
        for k in range(n_bursts):
            base = k * 10000.0
            rows.append((rid, "PANIC", "FATAL", base, f"R0{k % 8}-M0"))
            rid += 1
            rows.append((rid, "TORUS", "FATAL", base + 30.0, f"R0{k % 8}-M1"))
            rid += 1
        return rows

    def test_follower_removed(self):
        f = CausalityFilter(window=120.0, min_support=3, min_confidence=0.5)
        out = f.apply(table(self._cascade_rows()))
        assert set(out.frame["errcode"]) == {"PANIC"}
        assert len(out) == 5

    def test_rule_learned(self):
        f = CausalityFilter(window=120.0, min_support=3, min_confidence=0.5)
        f.apply(table(self._cascade_rows()))
        assert any(
            r.trigger == "PANIC" and r.follower == "TORUS" for r in f.rules
        )

    def test_insufficient_support_keeps_followers(self):
        f = CausalityFilter(window=120.0, min_support=3, min_confidence=0.5)
        out = f.apply(table(self._cascade_rows(n_bursts=2)))
        assert len(out) == 4

    def test_independent_follower_occurrences_kept(self):
        rows = self._cascade_rows() + [
            (100, "TORUS", "FATAL", 999999.0, "R40-M0")
        ]
        f = CausalityFilter(window=120.0, min_support=3, min_confidence=0.5)
        out = f.apply(table(rows))
        # the lone TORUS far from any PANIC survives
        assert (out.frame["errcode"] == "TORUS").sum() == 1

    def test_low_confidence_no_rule(self):
        rows = self._cascade_rows(n_bursts=3) + [
            (200 + i, "TORUS", "FATAL", 5e5 + i * 1e4, "R40-M0")
            for i in range(10)
        ]
        f = CausalityFilter(window=120.0, min_support=3, min_confidence=0.5)
        f.apply(table(rows))
        assert not any(r.follower == "TORUS" for r in f.rules)


class TestWindowBoundaryInclusivity:
    """Events exactly ``threshold`` / ``window`` apart sit *inside* the
    inclusive window — pinned on kernels and references alike so a
    vectorization can never silently flip a ``<=`` into a ``<``."""

    @pytest.mark.parametrize("make", [TemporalFilter, ReferenceTemporalFilter])
    def test_temporal_exact_threshold_suppresses(self, make):
        t = table(
            [
                (1, "A", "FATAL", 0.0, "R00-M0"),
                (2, "A", "FATAL", 300.0, "R00-M0"),
            ]
        )
        assert len(make(threshold=300.0).apply(t)) == 1

    @pytest.mark.parametrize("make", [TemporalFilter, ReferenceTemporalFilter])
    def test_temporal_just_past_threshold_splits(self, make):
        t = table(
            [
                (1, "A", "FATAL", 0.0, "R00-M0"),
                (2, "A", "FATAL", 300.0001, "R00-M0"),
            ]
        )
        assert len(make(threshold=300.0).apply(t)) == 2

    @pytest.mark.parametrize("make", [SpatialFilter, ReferenceSpatialFilter])
    def test_spatial_exact_threshold_suppresses(self, make):
        t = table(
            [
                (1, "A", "FATAL", 0.0, "R00-M0"),
                (2, "A", "FATAL", 300.0, "R17-M1"),
            ]
        )
        assert len(make(threshold=300.0).apply(t)) == 1

    @pytest.mark.parametrize("make", [SpatialFilter, ReferenceSpatialFilter])
    def test_spatial_just_past_threshold_splits(self, make):
        t = table(
            [
                (1, "A", "FATAL", 0.0, "R00-M0"),
                (2, "A", "FATAL", 300.0001, "R17-M1"),
            ]
        )
        assert len(make(threshold=300.0).apply(t)) == 2

    @pytest.mark.parametrize(
        "make", [CausalityFilter, ReferenceCausalityFilter]
    )
    def test_causal_trigger_exactly_window_back_counts(self, make):
        """A trigger exactly ``window`` seconds before the follower is
        inside the mining window: rules form and followers drop."""
        rows = []
        for k in range(4):
            base = k * 10000.0
            rows.append((2 * k, "PANIC", "FATAL", base, "R00-M0"))
            rows.append((2 * k + 1, "TORUS", "FATAL", base + 120.0, "R00-M1"))
        f = make(window=120.0, min_support=3, min_confidence=0.5)
        out = f.apply(table(rows))
        assert set(out.frame["errcode"]) == {"PANIC"}
        assert any(
            r.trigger == "PANIC" and r.follower == "TORUS" for r in f.rules
        )

    @pytest.mark.parametrize(
        "make", [CausalityFilter, ReferenceCausalityFilter]
    )
    def test_causal_trigger_just_outside_window_ignored(self, make):
        rows = []
        for k in range(4):
            base = k * 10000.0
            rows.append((2 * k, "PANIC", "FATAL", base, "R00-M0"))
            rows.append(
                (2 * k + 1, "TORUS", "FATAL", base + 120.0001, "R00-M1")
            )
        f = make(window=120.0, min_support=3, min_confidence=0.5)
        out = f.apply(table(rows))
        assert len(out) == 8
        assert f.rules == []


class TestThresholdValidation:
    @pytest.mark.parametrize("make", [TemporalFilter, ReferenceTemporalFilter,
                                      SpatialFilter, ReferenceSpatialFilter])
    def test_negative_threshold_rejected(self, make):
        with pytest.raises(ValueError, match="non-negative"):
            make(threshold=-1.0)

    @pytest.mark.parametrize(
        "make", [CausalityFilter, ReferenceCausalityFilter]
    )
    def test_negative_window_rejected(self, make):
        with pytest.raises(ValueError, match="non-negative"):
            make(window=-0.5)

    def test_zero_threshold_allowed(self):
        t = table(
            [
                (1, "A", "FATAL", 0.0, "R00-M0"),
                (2, "A", "FATAL", 0.0, "R00-M0"),
                (3, "A", "FATAL", 5.0, "R00-M0"),
            ]
        )
        # zero threshold still collapses exact-duplicate timestamps
        assert len(TemporalFilter(threshold=0.0).apply(t)) == 2


class TestFilterChain:
    def test_stats_recorded(self):
        rows = [
            (i, "A", "FATAL", float(i % 50), f"R00-M0-N{i % 16:02d}")
            for i in range(100)
        ]
        chain = FilterChain()
        out = chain.apply(table(rows))
        assert chain.stats.raw == 100
        assert chain.stats.after_causal == len(out) == 1
        assert chain.stats.compression_ratio == pytest.approx(0.99)

    def test_temporal_table_retained(self):
        chain = FilterChain()
        chain.apply(table([(1, "A", "FATAL", 0.0, "R00-M0")]))
        assert chain.temporal_table is not None
        assert len(chain.temporal_table) == 1

    def test_empty_chain(self):
        chain = FilterChain()
        out = chain.apply(table([]))
        assert len(out) == 0
        assert chain.stats.compression_ratio == 0.0

    def test_stage_timings_recorded(self):
        chain = FilterChain()
        chain.apply(table([(1, "A", "FATAL", 0.0, "R00-M0")]))
        stages = [t.stage for t in chain.timings]
        assert stages == ["filter.temporal", "filter.spatial", "filter.causal"]
        assert all(t.rows == 1 for t in chain.timings)
        assert all(t.wall_s >= 0.0 for t in chain.timings)
