"""Unit and replay tests for the job-risk predictor."""

import pytest

from benchmarks.ext.predict import (
    JobRiskPredictor,
    MidplaneHazard,
    RiskWeights,
    evaluate_predictor,
    sweep_thresholds,
)
from repro.frame import Frame
from repro.machine.partition import Partition
from tests.core.helpers import jobs


def interruptions(rows):
    """(job_id, t, mp, category) rows."""
    return Frame.from_rows(
        [
            {"job_id": j, "event_time": float(t), "mp": mp, "category": c}
            for j, t, mp, c in rows
        ],
        columns=["job_id", "event_time", "mp", "category"],
    )


class TestScoring:
    def test_location_term(self):
        p = JobRiskPredictor(hazard=MidplaneHazard(),
                             weights=RiskWeights(use_size=False))
        p.observe_event(0.0, 16)
        hot = p.score(600.0, "R10-M0", 1)     # midplane 16
        cold = p.score(600.0, "R20-M0", 1)    # midplane 32
        assert hot > cold == 0.0

    def test_size_term(self):
        p = JobRiskPredictor(hazard=MidplaneHazard(),
                             weights=RiskWeights(use_location=False))
        assert p.score(0.0, Partition(0, 80), 80) > p.score(0.0, Partition(0, 1), 1)

    def test_ablation_switches(self):
        w = RiskWeights().ablated(location=False)
        assert not w.use_location and w.use_size

    def test_alarm_threshold(self):
        p = JobRiskPredictor(hazard=MidplaneHazard(), threshold=1.0,
                             weights=RiskWeights(use_location=False,
                                                 size_weight=0.02))
        assert not p.alarm(0.0, Partition(0, 1), 1)
        assert p.alarm(0.0, Partition(0, 80), 80)


class TestReplay:
    def test_perfect_sticky_scenario(self):
        """A kill chain at one midplane: the predictor alarms the later
        placements after seeing the first kill."""
        job_rows = [
            (1, "/a", 0.0, 1000.0, "R00-M0", 1),      # first kill (unseen)
            (2, "/b", 1200.0, 1500.0, "R00-M0", 1),   # alarmed, killed
            (3, "/c", 1700.0, 2000.0, "R00-M0", 1),   # alarmed, killed
            (4, "/d", 1200.0, 9000.0, "R30-M0", 1),   # cold, survives
        ]
        ints = interruptions([(1, 1000.0, 0, 1), (2, 1500.0, 0, 1),
                              (3, 2000.0, 0, 1)])
        p = JobRiskPredictor(
            hazard=MidplaneHazard(shape=0.5),
            weights=RiskWeights(use_size=False),
            threshold=0.5,
        )
        score = evaluate_predictor(p, jobs(job_rows), ints)
        assert score.true_positives == 2   # jobs 2 and 3
        assert score.false_negatives == 1  # job 1, no prior signal
        assert score.false_positives == 0
        assert score.true_negatives == 1
        assert score.recall == pytest.approx(2 / 3)
        assert score.precision == 1.0
        assert score.work_coverage > 0.0

    def test_no_lookahead(self):
        """An event at a job's own end must not inform its own score."""
        job_rows = [(1, "/a", 0.0, 1000.0, "R00-M0", 1)]
        ints = interruptions([(1, 1000.0, 0, 1)])
        p = JobRiskPredictor(hazard=MidplaneHazard(),
                             weights=RiskWeights(use_size=False),
                             threshold=1e-9)
        score = evaluate_predictor(p, jobs(job_rows), ints)
        assert score.true_positives == 0
        assert score.false_negatives == 1

    def test_category_filter(self):
        job_rows = [(1, "/a", 0.0, 1000.0, "R00-M0", 1)]
        ints = interruptions([(1, 1000.0, 0, 2)])  # application error
        p = JobRiskPredictor(hazard=MidplaneHazard(), threshold=1e9)
        score = evaluate_predictor(p, jobs(job_rows), ints, category=1)
        assert score.false_negatives == 0  # cat-2 not a positive here
        assert score.true_negatives == 1

    def test_metrics_edge_cases(self):
        from benchmarks.ext.predict.evaluation import PredictionScore

        empty = PredictionScore(0, 0, 0, 0, 0.0, 0.0)
        assert empty.precision == empty.recall == empty.f1 == 0.0
        assert empty.alarm_rate == 0.0
        assert empty.work_coverage == 0.0

    def test_threshold_sweep_monotone_alarms(self):
        job_rows = [
            (i, f"/x{i}", i * 100.0, i * 100.0 + 50.0, "R00-M0", 1)
            for i in range(1, 30)
        ]
        ints = interruptions([(5, 550.0, 0, 1)])
        results = sweep_thresholds(
            lambda: JobRiskPredictor(hazard=MidplaneHazard(),
                                     weights=RiskWeights(use_size=False)),
            jobs(job_rows),
            ints,
            thresholds=[1e-6, 0.5, 1e9],
        )
        alarm_rates = [s.alarm_rate for _, s in results]
        assert alarm_rates[0] >= alarm_rates[1] >= alarm_rates[2]
        assert alarm_rates[2] == 0.0
