"""Unit tests for the calibration profile."""

from collections import Counter

import pytest

from repro.simulate import CalibrationProfile
from repro.simulate.calibration import INTREPID_DURATION, INTREPID_T_START


class TestProfile:
    def test_defaults_match_table1(self):
        p = CalibrationProfile()
        assert p.duration == 237 * 86400.0
        assert p.total_submissions == 68794
        assert p.num_executables == 9664

    def test_window_starts_2009_01_05(self):
        from repro.logs import format_bgp_time

        assert format_bgp_time(INTREPID_T_START).startswith("2009-01-05")
        assert INTREPID_DURATION == 237 * 86400.0

    def test_scale_validated(self):
        with pytest.raises(ValueError):
            CalibrationProfile(scale=0.0)
        with pytest.raises(ValueError):
            CalibrationProfile(scale=1.5)

    def test_scale_shrinks_population(self):
        p = CalibrationProfile(scale=0.1)
        prof = p.population_profile()
        assert prof.num_executables == pytest.approx(966, abs=1)
        assert prof.total_submissions == pytest.approx(6879, abs=1)

    def test_scale_floor(self):
        p = CalibrationProfile(scale=0.001)
        prof = p.population_profile()
        assert prof.num_executables >= 50
        assert prof.total_submissions >= prof.num_executables

    def test_builders_respect_scale(self):
        p = CalibrationProfile(scale=0.5)
        proc = p.make_process()
        assert proc.ambient_count_mean == pytest.approx(125.0)
        em = p.make_emitter()
        assert em.noise_count_mean == pytest.approx(1_025_511.0)

    def test_rng_deterministic(self):
        a = CalibrationProfile(seed=3).rng().random(4)
        b = CalibrationProfile(seed=3).rng().random(4)
        assert (a == b).all()


class TestEndToEndSmall:
    """A small but complete trace exercising every component."""

    @pytest.fixture(scope="class")
    def trace(self):
        from repro.simulate import IntrepidSimulation

        profile = CalibrationProfile(seed=5, scale=0.02)
        return IntrepidSimulation(profile).run()

    def test_logs_nonempty(self, trace):
        assert trace.job_log.num_jobs > 1000
        assert len(trace.ras_log) > 10000
        assert trace.num_fatal_records > 50

    def test_ras_sorted_with_recids(self, trace):
        import numpy as np

        t = trace.ras_log.frame["event_time"]
        assert (np.diff(t) >= 0).all()
        assert trace.ras_log.frame["recid"][0] == 1

    def test_interrupted_jobs_consistent(self, trace):
        truth_ids = trace.ground_truth.interrupted_job_ids()
        by_field = {j for j, e in trace.interrupted_by.items() if e}
        assert truth_ids == by_field

    def test_severity_mix(self, trace):
        counts = Counter(trace.ras_log.frame["severity"].tolist())
        assert counts["INFO"] > counts["FATAL"]
        assert "WARN" in counts

    def test_deterministic(self):
        from repro.simulate import IntrepidSimulation

        a = IntrepidSimulation(CalibrationProfile(seed=9, scale=0.01)).run()
        b = IntrepidSimulation(CalibrationProfile(seed=9, scale=0.01)).run()
        assert len(a.ras_log) == len(b.ras_log)
        assert a.job_log.num_jobs == b.job_log.num_jobs
        assert list(a.job_log.frame["end_time"]) == list(
            b.job_log.frame["end_time"]
        )

    def test_text_roundtrip(self, trace, tmp_path):
        from repro.logs import (
            read_job_log,
            read_ras_log,
            write_job_log,
            write_ras_log,
        )

        rp, jp = tmp_path / "ras.log", tmp_path / "job.log"
        # keep the io test fast: first 2000 RAS rows
        from repro.logs.ras import RasLog

        small = RasLog(trace.ras_log.frame.head(2000))
        write_ras_log(small, rp)
        write_job_log(trace.job_log, jp)
        assert len(read_ras_log(rp)) == 2000
        assert read_job_log(jp).num_jobs == trace.job_log.num_jobs
