"""Concurrent downstream studies equal the serial run, failures included."""

import pytest

from repro.core import CoAnalysis
from repro.simulate import CalibrationProfile, IntrepidSimulation


@pytest.fixture(scope="module")
def trace():
    return IntrepidSimulation(CalibrationProfile(seed=2011, scale=0.05)).run()


def _boom(*args, **kwargs):
    raise RuntimeError("synthetic study crash")


def fingerprint(result):
    """Everything observable about the studies, minus wall-clock."""
    return {
        "failures": [
            (f.stage, f.kind, f.error) for f in result.stage_failures
        ],
        "categories": result.interruptions_by_category(),
        "interarrivals": repr(result.interarrivals),
        "rates": repr(result.rates),
        "profile": None
        if result.midplane_profile is None
        else {
            c: result.midplane_profile[c].tolist()
            for c in result.midplane_profile.columns
        },
        "skew": repr(result.skew),
        "bursts": repr(result.bursts),
        "propagation": repr(result.propagation),
        "vulnerability": repr(result.vulnerability),
        "observations": [o.summary() for o in result.observations],
    }


class TestConcurrentEqualsSerial:
    def test_clean_run(self, trace):
        serial = CoAnalysis(study_workers=1).run(trace.ras_log, trace.job_log)
        threaded = CoAnalysis(study_workers=4).run(
            trace.ras_log, trace.job_log
        )
        assert fingerprint(serial) == fingerprint(threaded)

    def test_injected_failure_same_degradation(self, trace, monkeypatch):
        monkeypatch.setattr("repro.core.pipeline.burst_study", _boom)
        serial = CoAnalysis(study_workers=1).run(trace.ras_log, trace.job_log)
        threaded = CoAnalysis(study_workers=4).run(
            trace.ras_log, trace.job_log
        )
        assert serial.degraded and threaded.degraded
        assert fingerprint(serial) == fingerprint(threaded)

    def test_failure_order_is_canonical(self, trace, monkeypatch):
        monkeypatch.setattr("repro.core.pipeline.burst_study", _boom)
        monkeypatch.setattr("repro.core.pipeline.midplane_profile", _boom)
        monkeypatch.setattr("repro.core.pipeline.vulnerability_study", _boom)
        result = CoAnalysis(study_workers=4).run(
            trace.ras_log, trace.job_log
        )
        assert [f.stage for f in result.stage_failures] == [
            "studies.midplane_profile",
            "studies.skew",
            "studies.bursts",
            "studies.vulnerability",
        ]
        assert result.failure("studies.skew").kind == "Skipped"

    def test_dependent_stages_still_fed(self, trace):
        """rates (needs interarrivals' MTBF) and skew (needs the
        profile) compute real values in the concurrent schedule."""
        result = CoAnalysis(study_workers=4).run(
            trace.ras_log, trace.job_log
        )
        assert result.rates is not None
        assert result.skew is not None
        assert not result.degraded


class TestSchedulingModes:
    def test_per_study_timings_in_canonical_order(self, trace):
        for workers in (1, 4):
            result = CoAnalysis(study_workers=workers).run(
                trace.ras_log, trace.job_log
            )
            stages = [
                t.stage
                for t in result.timings
                if t.stage.startswith("studies.")
            ]
            assert stages == [
                "studies.interarrivals",
                "studies.rates",
                "studies.midplane_profile",
                "studies.skew",
                "studies.bursts",
                "studies.propagation",
                "studies.vulnerability",
            ]

    def test_workers_note_on_studies_stage(self, trace):
        threaded = CoAnalysis(study_workers=4).run(
            trace.ras_log, trace.job_log
        )
        note = next(
            t.note for t in threaded.timings if t.stage == "studies"
        )
        assert note == "4 workers"
        serial = CoAnalysis(study_workers=1).run(
            trace.ras_log, trace.job_log
        )
        note = next(
            t.note for t in serial.timings if t.stage == "studies"
        )
        assert note == ""
