"""Graceful pipeline degradation: stage error boundaries and reporting."""

import pytest

from repro.core import CoAnalysis
from repro.core.pipeline import StageFailure
from repro.simulate import CalibrationProfile, IntrepidSimulation


@pytest.fixture(scope="module")
def trace():
    return IntrepidSimulation(CalibrationProfile(seed=2011, scale=0.05)).run()


def _boom(*args, **kwargs):
    raise RuntimeError("synthetic study crash")


class TestErrorBoundaries:
    def test_failing_study_captured_not_fatal(self, trace, monkeypatch):
        monkeypatch.setattr("repro.core.pipeline.burst_study", _boom)
        result = CoAnalysis().run(trace.ras_log, trace.job_log)
        assert result.degraded
        assert result.bursts is None
        failure = result.failure("studies.bursts")
        assert failure is not None
        assert failure.kind == "RuntimeError"
        assert "synthetic study crash" in failure.error

    def test_unrelated_studies_still_computed(self, trace, monkeypatch):
        monkeypatch.setattr("repro.core.pipeline.burst_study", _boom)
        result = CoAnalysis().run(trace.ras_log, trace.job_log)
        assert result.interarrivals is not None
        assert result.rates is not None
        assert result.vulnerability is not None
        assert [f.stage for f in result.stage_failures] == ["studies.bursts"]

    def test_dependent_stage_cascades_as_skipped(self, trace, monkeypatch):
        monkeypatch.setattr("repro.core.pipeline.midplane_profile", _boom)
        result = CoAnalysis().run(trace.ras_log, trace.job_log)
        assert result.midplane_profile is None
        assert result.skew is None
        skew_failure = result.failure("studies.skew")
        assert skew_failure.kind == "Skipped"
        assert "studies.midplane_profile" in skew_failure.error

    def test_observations_skip_on_degraded_inputs(self, trace, monkeypatch):
        monkeypatch.setattr("repro.core.pipeline.burst_study", _boom)
        result = CoAnalysis().run(trace.ras_log, trace.job_log)
        assert len(result.observations) == 12
        obs6 = result.observation(6)
        assert not obs6.available
        assert "studies.bursts" in obs6.measured["note"]
        assert "[SKIPPED]" in obs6.summary()
        # every other observation still computed normally
        assert all(
            o.available for o in result.observations if o.number != 6
        )

    def test_observations_degrade_to_empty_list(self, trace, monkeypatch):
        monkeypatch.setattr("repro.core.pipeline.compute_observations", _boom)
        result = CoAnalysis().run(trace.ras_log, trace.job_log)
        assert result.observations == []
        assert result.failure("observations") is not None

    def test_clean_run_is_not_degraded(self, trace):
        result = CoAnalysis().run(trace.ras_log, trace.job_log)
        assert not result.degraded
        assert result.stage_failures == ()
        assert result.failure("studies.bursts") is None


class TestDegradedReport:
    @pytest.fixture()
    def degraded(self, trace, monkeypatch):
        monkeypatch.setattr("repro.core.pipeline.burst_study", _boom)
        monkeypatch.setattr("repro.core.pipeline.midplane_profile", _boom)
        return CoAnalysis().run(trace.ras_log, trace.job_log)

    def test_sections_render_degraded_stub(self, degraded):
        text = degraded.report()
        assert "Figure 5: interruptions per day" in text
        assert "DEGRADED: studies.bursts: RuntimeError" in text
        assert "DEGRADED: studies.midplane_profile" in text

    def test_degradation_summary_lists_all(self, degraded):
        text = degraded.report()
        assert "Degraded stages" in text
        assert "3 stage(s) degraded" in text  # bursts, profile, skew
        for f in degraded.stage_failures:
            assert f.describe() in text

    def test_healthy_sections_unaffected(self, degraded):
        text = degraded.report()
        assert "Table IV" in text
        assert "Table V" in text
        assert "observations hold" in text

    def test_clean_report_has_no_degradation_section(self, trace):
        text = CoAnalysis().run(trace.ras_log, trace.job_log).report()
        assert "Degraded stages" not in text
        assert "DEGRADED" not in text


class TestStageFailure:
    def test_describe(self):
        f = StageFailure("studies.rates", "ValueError", "no data")
        assert f.describe() == "studies.rates: ValueError: no data"
