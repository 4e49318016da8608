"""Location-aware failure prediction — the §VII recommendation, built.

The paper's discussion section argues a failure predictor for BG/P-class
machines must (a) restrict itself to *interruption-related* fatal types
(Obs. 1) and (b) report *where* the failure will strike (Obs. 7),
because 45% of fatal events hit idle hardware and MTTI is 4x MTBF —
location-blind predictions waste proactive actions.

This package implements that predictor on top of the co-analysis
outputs and scores it by trace replay:

* :mod:`benchmarks.ext.predict.hazard` — a per-midplane
  decreasing-hazard risk model: every observed interruption-related
  fatal event re-arms a midplane's hazard, which then decays per the
  fitted Weibull shape (failures cluster after failures, Table IV);
* :mod:`benchmarks.ext.predict.predictor` — job-level risk scoring: a
  job's risk combines its partition's armed hazard with the size effect of
  Obs. 10;
* :mod:`benchmarks.ext.predict.evaluation` — trace replay producing
  precision/recall against ground-truth interruptions, with the
  location-blind and size-blind ablations the paper's argument implies.
"""

from benchmarks.ext.predict.hazard import MidplaneHazard
from benchmarks.ext.predict.predictor import JobRiskPredictor, RiskWeights
from benchmarks.ext.predict.evaluation import (
    PredictionScore,
    evaluate_predictor,
    sweep_thresholds,
)

__all__ = [
    "MidplaneHazard",
    "JobRiskPredictor",
    "RiskWeights",
    "PredictionScore",
    "evaluate_predictor",
    "sweep_thresholds",
]
