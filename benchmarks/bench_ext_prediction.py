"""Extension experiment (§VII): location-aware failure prediction.

Beyond the paper's evaluation — the experiment its discussion calls
for. Replays the trace through the job-risk predictor and its two
ablations. The §VII claim to verify: removing *location* information
collapses the predictor's coverage of interrupted work, because most
risk lives in post-failure bursts at specific midplanes (Obs. 6/7/9).
"""

from benchmarks.conftest import banner
from benchmarks.ext.predict import (
    JobRiskPredictor,
    MidplaneHazard,
    RiskWeights,
    evaluate_predictor,
)


def make_predictor(shape, weights):
    return JobRiskPredictor(
        hazard=MidplaneHazard(shape=shape),
        weights=weights,
        threshold=0.8,
    )


def test_ext_prediction_ablation(benchmark, trace, analysis):
    shape = analysis.interarrivals.after.weibull.shape

    def run_full():
        return evaluate_predictor(
            make_predictor(shape, RiskWeights()),
            trace.job_log,
            analysis.interruptions,
        )

    full = benchmark(run_full)
    no_location = evaluate_predictor(
        make_predictor(shape, RiskWeights(use_location=False)),
        trace.job_log,
        analysis.interruptions,
    )
    no_size = evaluate_predictor(
        make_predictor(shape, RiskWeights(use_size=False)),
        trace.job_log,
        analysis.interruptions,
    )

    banner("EXTENSION: failure prediction with/without location info")
    print(f"{'variant':>14} {'precision':>10} {'recall':>8} {'F1':>7} "
          f"{'alarm rate':>11} {'work cover':>11}")
    for label, s in (("full", full), ("no-location", no_location),
                     ("no-size", no_size)):
        print(
            f"{label:>14} {s.precision:>10.3f} {s.recall:>8.3f} "
            f"{s.f1:>7.3f} {s.alarm_rate:>11.4f} {s.work_coverage:>11.3f}"
        )
    print("-> §VII: a predictor without location information cannot tell\n"
          "   which failures will hit productive jobs; its recall collapses.")

    assert full.recall > no_location.recall
    assert full.work_coverage >= no_location.work_coverage
    assert full.recall > 0.3
