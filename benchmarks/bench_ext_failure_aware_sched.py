"""Extension experiment (§VII): failure-aware scheduling ablation.

Reruns the identical workload and fault environment under the default
policy and under :class:`FailureAwarePolicy` (quarantine killed
partitions). The §VII claim: the scheduler feedback loop removes
exactly the temporal-propagation chains (sticky refires) the
job-related filter detects.
"""

from benchmarks.conftest import BENCH_SEED, banner
from benchmarks.ext.failure_aware import FailureAwarePolicy
from repro.faults.injector import IncidentCause
from repro.sched.policy import IntrepidPolicy
from repro.simulate import CalibrationProfile


def run_with_policy(profile, policy):
    rng = profile.rng()
    population = profile.make_population(rng)
    submissions = profile.make_sampler().generate(population, rng)
    simulator = profile.make_simulator(population)
    simulator.policy = policy
    return simulator.run(submissions, rng)


def test_ext_failure_aware_scheduling(benchmark):
    profile = CalibrationProfile(seed=BENCH_SEED, scale=0.25)

    def run_default():
        return run_with_policy(profile, IntrepidPolicy(affinity=profile.affinity))

    default = benchmark.pedantic(run_default, rounds=1, iterations=1)
    aware = run_with_policy(profile, FailureAwarePolicy())

    banner("EXTENSION: failure-aware scheduling (same workload & faults)")
    rows = [("default (affinity)", default), ("failure-aware", aware)]
    print(f"{'policy':>20} {'interrupted':>12} {'sticky refires':>15} "
          f"{'unscheduled':>12}")
    for label, out in rows:
        s = out.ground_truth.summary()
        print(
            f"{label:>20} {s['interrupted_jobs']:>12} "
            f"{out.ground_truth.count(IncidentCause.STICKY_REFIRE):>15} "
            f"{out.unscheduled:>12}"
        )
    d_ref = default.ground_truth.count(IncidentCause.STICKY_REFIRE)
    a_ref = aware.ground_truth.count(IncidentCause.STICKY_REFIRE)
    print(f"-> refires removed: {d_ref - a_ref} "
          f"({100 * (d_ref - a_ref) / max(1, d_ref):.0f}%)")

    assert a_ref <= d_ref
    # the quarantine must not wreck throughput
    assert aware.unscheduled <= default.unscheduled + 5
