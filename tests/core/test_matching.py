"""Unit tests for RAS-event / job-termination matching."""

import numpy as np
import pytest

from repro.core.events import fatal_event_table
from repro.core.matching import (
    CASE_IDLE,
    CASE_INTERRUPTS,
    CASE_RUNNING_UNHARMED,
    DEFAULT_TOLERANCE,
    INTERRUPTION_COLUMNS,
    INTERRUPTION_DTYPES,
    InterruptionMatcher,
)
from repro.machine.partition import parse_partition
from repro.obs import Tracer
from tests.core.helpers import jobs, ras


@pytest.fixture
def matcher():
    return InterruptionMatcher(tolerance=15.0)


def events(rows):
    return fatal_event_table(ras(rows))


class TestBasicMatching:
    def test_kill_matched(self, matcher):
        ev = events([(1, "A", "FATAL", 1000.0, "R00-M0-N02-J08")])
        jl = jobs([(7, "/x", 500.0, 1000.0, "R00-M0", 1)])
        m = matcher.match(ev, jl)
        assert m.num_interrupted_jobs == 1
        assert m.interruptions.row(0)["job_id"] == 7
        assert m.event_cases[int(ev.frame["event_id"][0])] == CASE_INTERRUPTS

    def test_time_tolerance(self, matcher):
        ev = events([(1, "A", "FATAL", 1010.0, "R00-M0")])
        jl = jobs([(7, "/x", 500.0, 1000.0, "R00-M0", 1)])
        assert matcher.match(ev, jl).num_interrupted_jobs == 1

    def test_outside_tolerance_not_matched(self, matcher):
        ev = events([(1, "A", "FATAL", 1100.0, "R00-M0")])
        jl = jobs([(7, "/x", 500.0, 1000.0, "R00-M0", 1)])
        m = matcher.match(ev, jl)
        assert m.num_interrupted_jobs == 0

    def test_wrong_location_not_matched(self, matcher):
        ev = events([(1, "A", "FATAL", 1000.0, "R10-M0")])
        jl = jobs([(7, "/x", 500.0, 1000.0, "R00-M0", 1)])
        m = matcher.match(ev, jl)
        assert m.num_interrupted_jobs == 0

    def test_partition_containment(self, matcher):
        """An event inside any midplane of the partition matches."""
        ev = events([(1, "A", "FATAL", 1000.0, "R11-M1-N00-J04")])
        jl = jobs([(7, "/x", 500.0, 1000.0, "R10-R11", 4)])
        assert matcher.match(ev, jl).num_interrupted_jobs == 1

    def test_rack_level_event_touches_partition(self, matcher):
        ev = events([(1, "BULK", "FATAL", 1000.0, "R00")])
        jl = jobs([(7, "/x", 500.0, 1000.0, "R00-M1", 1)])
        assert matcher.match(ev, jl).num_interrupted_jobs == 1


class TestCases:
    def test_idle_case(self, matcher):
        ev = events([(1, "A", "FATAL", 5000.0, "R20-M0")])
        jl = jobs([(7, "/x", 500.0, 1000.0, "R00-M0", 1)])
        m = matcher.match(ev, jl)
        assert m.event_cases[int(ev.frame["event_id"][0])] == CASE_IDLE

    def test_running_unharmed_case(self, matcher):
        ev = events([(1, "A", "FATAL", 700.0, "R00-M0")])
        jl = jobs([(7, "/x", 500.0, 1000.0, "R00-M0", 1)])
        m = matcher.match(ev, jl)
        assert (
            m.event_cases[int(ev.frame["event_id"][0])] == CASE_RUNNING_UNHARMED
        )

    def test_type_case_table(self, matcher):
        ev = events(
            [
                (1, "A", "FATAL", 1000.0, "R00-M0"),   # kill
                (2, "A", "FATAL", 5000.0, "R20-M0"),   # idle
                (3, "B", "FATAL", 700.0, "R00-M0"),    # running, unharmed
            ]
        )
        jl = jobs([(7, "/x", 500.0, 1000.0, "R00-M0", 1)])
        tc = matcher.match(ev, jl).type_cases
        rows = {r["errcode"]: r for r in tc.to_rows()}
        assert rows["A"]["case1"] == 1 and rows["A"]["case2"] == 1
        assert rows["B"]["case3"] == 1

    def test_case_share(self, matcher):
        ev = events(
            [
                (1, "A", "FATAL", 5000.0, "R20-M0"),
                (2, "A", "FATAL", 6000.0, "R21-M0"),
            ]
        )
        jl = jobs([(7, "/x", 500.0, 1000.0, "R00-M0", 1)])
        m = matcher.match(ev, jl)
        assert m.case_share(CASE_IDLE) == 1.0


class TestMultiMatch:
    def test_one_job_keeps_earliest_event(self, matcher):
        ev = events(
            [
                (1, "A", "FATAL", 1000.0, "R00-M0"),
                (2, "B", "FATAL", 1005.0, "R00-M0"),
            ]
        )
        jl = jobs([(7, "/x", 500.0, 1000.0, "R00-M0", 1)])
        m = matcher.match(ev, jl)
        assert m.pairs.num_rows == 2
        assert m.interruptions.num_rows == 1
        assert m.interruptions.row(0)["errcode"] == "A"

    def test_cross_partition_attribution_via_raw(self, matcher):
        """A shared-FS event kills two jobs in different partitions; the
        filtered representative sits in one, the raw stream shows the
        type at the other (§VI-C)."""
        filtered = events([(1, "CIOD", "FATAL", 1000.0, "R00-M0")])
        raw = events(
            [
                (1, "CIOD", "FATAL", 1000.0, "R00-M0"),
                (2, "CIOD", "FATAL", 1002.0, "R20-M1"),
            ]
        )
        jl = jobs(
            [
                (7, "/x", 500.0, 1000.0, "R00-M0", 1),
                (8, "/y", 400.0, 1001.0, "R20-M1", 1),
            ]
        )
        without = matcher.match(filtered, jl)
        assert without.num_interrupted_jobs == 1
        with_raw = matcher.match(filtered, jl, raw_events=raw)
        assert with_raw.num_interrupted_jobs == 2

    def test_raw_attribution_requires_type_co_location(self, matcher):
        filtered = events([(1, "CIOD", "FATAL", 1000.0, "R00-M0")])
        raw = filtered  # no CIOD record near the second job
        jl = jobs(
            [
                (7, "/x", 500.0, 1000.0, "R00-M0", 1),
                (8, "/y", 400.0, 1001.0, "R20-M1", 1),
            ]
        )
        m = matcher.match(filtered, jl, raw_events=raw)
        assert m.num_interrupted_jobs == 1

    def test_empty_inputs(self, matcher):
        m = matcher.match(events([]), jobs([(1, "/x", 0.0, 10.0, "R00-M0", 1)]))
        assert m.num_interrupted_jobs == 0
        assert m.pairs.num_rows == 0


class TestMatchedMidplane:
    """``mp`` must record the midplane that actually matched — the seed
    code unconditionally wrote the event's ``mp_lo``."""

    def test_rack_event_records_matched_midplane(self, matcher):
        # rack R00 spans midplanes 0-1; the job only holds midplane 1
        ev = events([(1, "BULK", "FATAL", 1000.0, "R00")])
        jl = jobs([(7, "/x", 500.0, 1000.0, "R00-M1", 1)])
        m = matcher.match(ev, jl)
        assert m.pairs.row(0)["mp"] == 1

    def test_smallest_matching_midplane_wins(self, matcher):
        # the job holds the whole rack: both span midplanes match, keep 0
        ev = events([(1, "BULK", "FATAL", 1000.0, "R00")])
        jl = jobs([(7, "/x", 500.0, 1000.0, "R00", 2)])
        m = matcher.match(ev, jl)
        assert m.pairs.row(0)["mp"] == 0

    def test_raw_credit_records_job_partition_midplane(self, matcher):
        filtered = events([(1, "CIOD", "FATAL", 1000.0, "R00-M0")])
        raw = events(
            [
                (1, "CIOD", "FATAL", 1000.0, "R00-M0"),
                (2, "CIOD", "FATAL", 1002.0, "R20-M1"),
            ]
        )
        jl = jobs(
            [
                (7, "/x", 500.0, 1000.0, "R00-M0", 1),
                (8, "/y", 400.0, 1001.0, "R20-M1", 1),
            ]
        )
        m = matcher.match(filtered, jl, raw_events=raw)
        by_job = {r["job_id"]: r for r in m.pairs.to_rows()}
        assert by_job[7]["mp"] == parse_partition("R00-M0").start
        assert by_job[8]["mp"] == parse_partition("R20-M1").start


class TestToleranceBoundary:
    """The window is inclusive on both edges: [t - tol, t + tol]."""

    def test_end_exactly_at_lower_edge_matches(self, matcher):
        ev = events([(1, "A", "FATAL", 1000.0, "R00-M0")])
        jl = jobs([(7, "/x", 500.0, 985.0, "R00-M0", 1)])
        assert matcher.match(ev, jl).num_interrupted_jobs == 1

    def test_end_exactly_at_upper_edge_matches(self, matcher):
        ev = events([(1, "A", "FATAL", 1000.0, "R00-M0")])
        jl = jobs([(7, "/x", 500.0, 1015.0, "R00-M0", 1)])
        assert matcher.match(ev, jl).num_interrupted_jobs == 1

    def test_end_just_outside_window_misses(self, matcher):
        ev = events([(1, "A", "FATAL", 1000.0, "R00-M0")])
        jl = jobs(
            [
                (7, "/x", 500.0, 984.999, "R00-M0", 1),
                (8, "/x", 500.0, 1015.001, "R00-M0", 1),
            ]
        )
        assert matcher.match(ev, jl).num_interrupted_jobs == 0

    def test_negative_tolerance_rejected(self):
        from tests.core.matching_reference import ReferenceInterruptionMatcher

        ev = events([(1, "A", "FATAL", 1000.0, "R00-M0")])
        jl = jobs([(7, "/x", 500.0, 1000.0, "R00-M0", 1)])
        for cls in (InterruptionMatcher, ReferenceInterruptionMatcher):
            with pytest.raises(ValueError, match="non-negative"):
                cls(tolerance=-5.0).match(ev, jl)

    def test_default_tolerance_is_60s(self):
        matcher = InterruptionMatcher()
        assert matcher.tolerance == DEFAULT_TOLERANCE == 60.0
        ev = events([(1, "A", "FATAL", 1000.0, "R00-M0")])
        jl = jobs([(7, "/x", 500.0, 1060.0, "R00-M0", 1)])
        assert matcher.match(ev, jl).num_interrupted_jobs == 1


class TestEmptyJobLog:
    def test_all_events_idle_with_typed_empty_pairs(self, matcher):
        ev = events(
            [
                (1, "A", "FATAL", 1000.0, "R00-M0"),
                (2, "B", "FATAL", 2000.0, "R10"),
            ]
        )
        m = matcher.match(ev, jobs([]))
        assert m.pairs.num_rows == 0
        assert set(m.event_cases.values()) == {CASE_IDLE}
        # the empty pair frame keeps the full typed schema so downstream
        # numeric ops and concat keep working
        assert tuple(m.pairs.columns) == INTERRUPTION_COLUMNS
        for col in INTERRUPTION_COLUMNS:
            assert m.pairs[col].dtype == np.dtype(INTERRUPTION_DTYPES[col])

    def test_empty_jobs_and_raw_events(self, matcher):
        ev = events([(1, "A", "FATAL", 1000.0, "R00-M0")])
        m = matcher.match(ev, jobs([]), raw_events=ev)
        assert m.pairs.num_rows == 0
        assert m.interruptions.num_rows == 0


class TestTimings:
    def test_match_records_stage_timings(self, matcher):
        ev = events([(1, "A", "FATAL", 1000.0, "R00-M0")])
        jl = jobs([(7, "/x", 500.0, 1000.0, "R00-M0", 1)])
        tracer = Tracer()
        with tracer.activate(root=None):
            matcher.match(ev, jl, raw_events=ev)
        stages = [s.name for s in tracer.spans]
        assert stages == [
            "match.index",
            "match.join",
            "match.raw_credit",
            "match.cases",
            "match.assemble",
        ]
        assert [s.rows for s in tracer.spans] == [1, 1, 0, 1, 1]
        assert all(s.wall_s >= 0.0 for s in tracer.spans)
