"""Extension experiment (§VII): checkpoint policies scored on the trace.

Turns the paper's checkpointing recommendations into a measured
comparison: blanket periodic checkpointing vs the size-aware Young
schedule (Obs. 10) vs the history-aware variant that skips the
first-hour danger window for codes with application-error history
(Obs. 9/11). Costs are midplane-seconds: checkpoint overhead plus work
lost at interruptions (checkpoints cannot save category-2 runs — a
restored buggy state crashes again).
"""

from benchmarks.conftest import banner
from benchmarks.ext.policy import (
    HistoryAwarePolicy,
    NoCheckpointPolicy,
    PeriodicPolicy,
    SizeAwareYoungPolicy,
    evaluate_checkpoint_policy,
)


def test_ext_checkpoint_policies(benchmark, trace, analysis):
    mtti = (
        analysis.rates.system.weibull.mean
        if analysis.rates.system is not None
        else 1e5
    )
    policies = [
        NoCheckpointPolicy(),
        PeriodicPolicy(interval=3600.0),
        SizeAwareYoungPolicy(mtti=mtti),
        HistoryAwarePolicy(mtti=mtti),
    ]

    def run_all():
        return [
            evaluate_checkpoint_policy(p, trace.job_log, analysis.interruptions)
            for p in policies
        ]

    outcomes = benchmark.pedantic(run_all, rounds=1, iterations=1)
    banner("EXTENSION: checkpoint policy comparison (mp-hours)")
    print(f"{'policy':>14} {'overhead':>10} {'lost work':>10} {'total':>10} "
          f"{'checkpoints':>12}")
    by_name = {}
    for o in outcomes:
        by_name[o.policy] = o
        print(
            f"{o.policy:>14} {o.overhead_mp_seconds / 3600:>10.0f} "
            f"{o.lost_mp_seconds / 3600:>10.0f} {o.total_cost / 3600:>10.0f} "
            f"{o.checkpoints_written:>12}"
        )
    print("-> observation-guided schedules protect more work with far\n"
          "   fewer checkpoints than blanket periodic checkpointing.")

    periodic = by_name["periodic-1h"]
    young = by_name["size-young"]
    history = by_name["history-aware"]
    # Obs.-guided beats periodic on total cost
    assert young.total_cost < periodic.total_cost
    # the history rule never *adds* cost: same or less overhead
    assert history.overhead_mp_seconds <= young.overhead_mp_seconds
    assert history.total_cost <= young.total_cost * 1.02
