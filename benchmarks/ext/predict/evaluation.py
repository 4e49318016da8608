"""Trace-replay evaluation of the job-risk predictor.

Replays the analyzed trace in time order: the predictor sees each
interruption-related fatal event as it happens (it never looks ahead)
and scores every job at its start time. A job is a *positive* when the
ground truth says it was interrupted by a system failure. Outputs
precision/recall/F1 plus the work the predictor's alarms could protect
(proactive-action coverage, §VII).
"""

from __future__ import annotations

from dataclasses import dataclass

from benchmarks.ext.predict.predictor import JobRiskPredictor
from repro.frame import Frame
from repro.logs.job import JobLog


@dataclass(frozen=True)
class PredictionScore:
    """Confusion counts and derived metrics for one replay."""

    true_positives: int
    false_positives: int
    false_negatives: int
    true_negatives: int
    #: midplane-seconds of interrupted work covered by alarms
    protected_work: float
    #: midplane-seconds of interrupted work missed
    missed_work: float

    @property
    def precision(self) -> float:
        d = self.true_positives + self.false_positives
        return self.true_positives / d if d else 0.0

    @property
    def recall(self) -> float:
        d = self.true_positives + self.false_negatives
        return self.true_positives / d if d else 0.0

    @property
    def f1(self) -> float:
        p, r = self.precision, self.recall
        return 2 * p * r / (p + r) if p + r else 0.0

    @property
    def alarm_rate(self) -> float:
        total = (
            self.true_positives
            + self.false_positives
            + self.false_negatives
            + self.true_negatives
        )
        return (self.true_positives + self.false_positives) / total if total else 0.0

    @property
    def work_coverage(self) -> float:
        d = self.protected_work + self.missed_work
        return self.protected_work / d if d else 0.0


def evaluate_predictor(
    predictor: JobRiskPredictor,
    job_log: JobLog,
    interruptions: Frame,
    category: int = 1,
) -> PredictionScore:
    """Replay the trace through *predictor* and score it.

    *interruptions* is the co-analysis per-job table with ``category``;
    only the chosen category counts as positive (default: system
    failures, the proactively actionable kind).
    """
    events = sorted(
        (float(r["event_time"]), int(r["mp"]), int(r["job_id"]), int(r["category"]))
        for r in interruptions.to_rows()
    )
    positive_jobs = {jid for _, _, jid, cat in events if cat == category}

    jobs = job_log.frame.sort_by("start_time", "job_id")
    tp = fp = fn = tn = 0
    protected = missed = 0.0
    ei = 0
    for row in jobs.to_rows():
        start = row["start_time"]
        # feed all events that happened strictly before this job start
        while ei < len(events) and events[ei][0] < start:
            predictor.observe_event(events[ei][0], events[ei][1])
            ei += 1
        alarm = predictor.alarm(start, row["location"], row["size_midplanes"])
        positive = row["job_id"] in positive_jobs
        work = (row["end_time"] - start) * row["size_midplanes"]
        if alarm and positive:
            tp += 1
            protected += work
        elif alarm:
            fp += 1
        elif positive:
            fn += 1
            missed += work
        else:
            tn += 1
    return PredictionScore(
        true_positives=tp,
        false_positives=fp,
        false_negatives=fn,
        true_negatives=tn,
        protected_work=protected,
        missed_work=missed,
    )


def sweep_thresholds(
    make_predictor,
    job_log: JobLog,
    interruptions: Frame,
    thresholds,
    category: int = 1,
) -> list[tuple[float, PredictionScore]]:
    """Evaluate a fresh predictor per threshold (simple PR sweep).

    *make_predictor* is a zero-argument factory returning a new
    :class:`JobRiskPredictor`; its threshold is overwritten.
    """
    out = []
    for thr in thresholds:
        predictor = make_predictor()
        predictor.threshold = float(thr)
        out.append(
            (float(thr), evaluate_predictor(predictor, job_log, interruptions,
                                            category=category))
        )
    return out
