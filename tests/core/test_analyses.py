"""Unit tests for bursts, propagation, rates, and characteristics."""

import numpy as np
import pytest

from repro.core.bursts import burst_study
from repro.core.characteristics import (
    interarrival_study,
    midplane_profile,
    midplane_skew,
)
from repro.core.events import fatal_event_table
from repro.core.propagation import propagation_study
from repro.core.rates import (
    category_interarrivals,
    interruption_rate_study,
)
from repro.frame import Frame
from tests.core.helpers import jobs, ras


def cat_interruptions(rows):
    """(job_id, t, errcode, executable, mp, category[, start, end]) rows."""
    return Frame.from_rows(
        [
            {
                "event_id": i,
                "job_id": r[0],
                "event_time": float(r[1]),
                "errcode": r[2],
                "executable": r[3],
                "mp": r[4],
                "category": r[5],
                "job_start": float(r[6]) if len(r) > 6 else float(r[1]) - 100.0,
                "job_end": float(r[7]) if len(r) > 7 else float(r[1]),
                "user": "u1",
                "project": "p1",
                "size_midplanes": 1,
                "job_location": "R00-M0",
            }
            for i, r in enumerate(rows)
        ],
        columns=[
            "event_id", "job_id", "event_time", "errcode", "executable",
            "mp", "category", "job_start", "job_end", "user", "project",
            "size_midplanes", "job_location",
        ],
    )


class TestBursts:
    def test_per_day_series(self):
        ints = cat_interruptions(
            [(1, 100.0, "A", "/x", 0, 1), (2, 200.0, "A", "/x", 0, 1),
             (3, 2 * 86400.0 + 10, "A", "/y", 0, 1)]
        )
        study = burst_study(ints, t_start=0.0, duration=3 * 86400.0)
        assert list(study.per_day) == [2, 0, 1]
        assert study.days_with_interruptions == 2
        assert study.max_per_day == 2

    def test_quick_successions(self):
        ints = cat_interruptions(
            [(1, 0.0, "A", "/x", 0, 1), (2, 500.0, "A", "/x", 0, 1),
             (3, 50000.0, "A", "/y", 0, 1)]
        )
        study = burst_study(ints, 0.0, 86400.0 * 2, quick_window=1000.0)
        assert study.quick_successions == 1

    def test_chains(self):
        ints = cat_interruptions(
            [(i, i * 1000.0, "A", "/x", 3, 1) for i in range(4)]
        )
        study = burst_study(ints, 0.0, 86400.0)
        assert study.max_chain_per_executable == 4
        assert study.max_jobs_per_location_chain == 4

    def test_burstiness_above_one_for_clustered(self):
        times = [float(t) for t in [0, 1, 2, 3, 4]] + [86400.0 * 30 + t for t in range(5)]
        ints = cat_interruptions(
            [(i, t, "A", "/x", 0, 1) for i, t in enumerate(times)]
        )
        study = burst_study(ints, 0.0, 86400.0 * 60)
        assert study.burstiness > 1.0

    def test_empty(self):
        study = burst_study(cat_interruptions([]), 0.0, 86400.0)
        assert study.per_day.sum() == 0
        assert study.burstiness == 0.0


class TestPropagation:
    def test_multi_job_multi_location_detected(self):
        pairs = Frame.from_rows(
            [
                {"event_id": 1, "job_id": 10, "errcode": "CIOD",
                 "job_location": "R00-M0"},
                {"event_id": 1, "job_id": 11, "errcode": "CIOD",
                 "job_location": "R20-M0"},
                {"event_id": 2, "job_id": 12, "errcode": "DDR",
                 "job_location": "R10-M0"},
            ]
        )
        study = propagation_study(pairs, total_events=50)
        assert study.propagating_events == 1
        assert study.propagating_types == ("CIOD",)
        assert study.share_of_fatal_events == pytest.approx(0.02)

    def test_multi_job_same_location_not_propagation(self):
        pairs = Frame.from_rows(
            [
                {"event_id": 1, "job_id": 10, "errcode": "DDR",
                 "job_location": "R00-M0"},
                {"event_id": 1, "job_id": 11, "errcode": "DDR",
                 "job_location": "R00-M0"},
            ]
        )
        study = propagation_study(pairs, total_events=10)
        assert study.propagating_events == 0

    def test_empty(self):
        study = propagation_study(
            Frame.from_rows([], columns=["event_id", "job_id", "errcode",
                                         "job_location"]),
            total_events=0,
        )
        assert study.share_of_fatal_events == 0.0


class TestRates:
    def _interruptions(self, rng):
        rows = []
        t = 0.0
        for i in range(120):
            t += float(rng.exponential(50000.0))
            rows.append((i, t, "DDR", f"/s{i}", 0, 1))
        t = 0.0
        for i in range(80):
            t += float(rng.exponential(120000.0))
            rows.append((1000 + i, t, "SEGV", f"/a{i}", 0, 2))
        return cat_interruptions(rows)

    def test_category_split(self):
        rng = np.random.default_rng(1)
        ints = self._interruptions(rng)
        sys_gaps = category_interarrivals(ints, 1)
        app_gaps = category_interarrivals(ints, 2)
        assert len(sys_gaps) == 119
        assert len(app_gaps) == 79

    def test_study_fits_both(self):
        rng = np.random.default_rng(2)
        study = interruption_rate_study(self._interruptions(rng), mtbf=30000.0)
        assert study.system is not None
        assert study.application is not None
        assert study.mtti_application > study.mtti_system
        assert study.mtti_over_mtbf > 1.0

    def test_insufficient_data_gives_none(self):
        ints = cat_interruptions([(1, 100.0, "A", "/x", 0, 1)])
        study = interruption_rate_study(ints, mtbf=100.0)
        assert study.system is None
        assert np.isnan(study.mtti_over_mtbf)


class TestCharacteristics:
    def test_interarrival_study_detects_filtering_effect(self):
        rng = np.random.default_rng(4)
        # bulk events + a tight redundant cluster
        bulk = np.cumsum(rng.exponential(40000.0, 150))
        cluster = bulk[10] + np.arange(1, 21) * 400.0
        rows_before = [
            (i, "A", "FATAL", float(t), "R00-M0")
            for i, t in enumerate(np.sort(np.concatenate([bulk, cluster])))
        ]
        rows_after = [
            (i, "A", "FATAL", float(t), "R00-M0")
            for i, t in enumerate(np.sort(bulk))
        ]
        study = interarrival_study(
            fatal_event_table(ras(rows_before)),
            fatal_event_table(ras(rows_after)),
        )
        assert study.after.weibull.shape > study.before.weibull.shape
        assert study.mtbf_ratio > 1.0

    def test_midplane_profile_workload(self):
        ev = fatal_event_table(ras([(1, "A", "FATAL", 100.0, "R00-M0")]))
        jl = jobs(
            [
                (1, "/x", 0.0, 1000.0, "R00-M0", 1),
                (2, "/y", 0.0, 500.0, "R10-R17", 32),  # wide: 16 racks
            ]
        )
        profile = midplane_profile(ev, jl, wide_threshold=32)
        assert profile["fatal_events"][0] == 1
        assert profile["workload"][0] == 1000.0
        assert profile["workload"][16] == 500.0
        assert profile["wide_workload"][16] == 500.0
        assert profile["wide_workload"][0] == 0.0

    def test_skew_summary(self):
        ev = fatal_event_table(
            ras([(i, "A", "FATAL", 1000.0 * i, "R20-M0") for i in range(5)])
        )
        jl = jobs([(1, "/w", 0.0, 1000.0, "R20-R27", 32)])
        profile = midplane_profile(ev, jl)
        skew = midplane_skew(profile)
        assert skew.wide_region_event_share == 1.0
        assert 32 in skew.top_failure_midplanes
