"""Unit tests for the failure-aware allocation policy."""

import numpy as np
import pytest

from benchmarks.ext.failure_aware import FailureAwarePolicy
from repro.machine.partition import Partition
from repro.machine.topology import NUM_MIDPLANES


@pytest.fixture
def policy():
    return FailureAwarePolicy(cooldown=3600.0)


@pytest.fixture
def rng():
    return np.random.default_rng(4)


def all_free():
    return np.ones(NUM_MIDPLANES, dtype=bool)


class TestQuarantine:
    def test_avoids_killed_partition(self, policy, rng):
        killed = Partition(70, 1)
        policy.observe_interruption(1000.0, killed)
        for _ in range(30):
            choice = policy.choose(1, all_free(), rng, now=1500.0)
            assert choice != killed

    def test_quarantine_expires(self, policy, rng):
        killed = Partition(70, 1)
        policy.observe_interruption(1000.0, killed)
        picks = {
            str(policy.choose(1, all_free(), rng, now=1000.0 + 7200.0))
            for _ in range(200)
        }
        assert str(killed) in picks

    def test_whole_partition_quarantined(self, policy, rng):
        policy.observe_interruption(1000.0, Partition(32, 32))
        choice = policy.choose(32, all_free(), rng, now=1500.0)
        # the only in-region 32-partition is quarantined; fallback picks
        # the other aligned candidate
        assert choice is not None
        assert choice.start != 32 or choice.size != 32

    def test_fallback_when_everything_quarantined(self, policy, rng):
        policy.observe_interruption(1000.0, Partition(0, 80))
        choice = policy.choose(1, all_free(), rng, now=1200.0)
        assert choice is not None  # availability beats caution

    def test_preferred_dropped_when_quarantined(self, rng):
        policy = FailureAwarePolicy(cooldown=3600.0)
        policy.base.affinity = 1.0
        killed = Partition(70, 1)
        policy.observe_interruption(1000.0, killed)
        free = all_free()
        choice = policy.choose(1, free, rng, preferred=killed, now=1500.0)
        assert choice != killed

    def test_respects_busy_midplanes(self, policy, rng):
        free = np.zeros(NUM_MIDPLANES, dtype=bool)
        assert policy.choose(1, free, rng, now=0.0) is None


class TestSimulationIntegration:
    def test_reduces_refires_on_sticky_heavy_workload(self):
        """With sticky failures dominating, quarantining killed
        partitions removes a visible share of refire chains."""
        from repro.faults.apperrors import ApplicationErrorModel
        from repro.faults.injector import IncidentCause
        from repro.sched import CobaltSimulator
        from repro.sched.policy import IntrepidPolicy
        from tests.sched.test_cobalt import quiet_process, submission

        def run(policy):
            rng = np.random.default_rng(21)
            process = quiet_process(hazard_coeff=0.05, sticky_fraction=1.0)
            subs = [
                submission(i * 2500.0, exe=f"/bin/{i % 40}", runtime=2000.0)
                for i in range(300)
            ]
            sim = CobaltSimulator(
                process=process,
                app_errors=ApplicationErrorModel(buggy_fraction=0.0),
                t_start=0.0,
                duration=30 * 86400.0,
                policy=policy,
            )
            out = sim.run(subs, rng)
            return out.ground_truth.count(IncidentCause.STICKY_REFIRE)

        refires_default = run(IntrepidPolicy(affinity=0.75))
        refires_aware = run(FailureAwarePolicy(cooldown=12 * 3600.0))
        assert refires_aware <= refires_default
