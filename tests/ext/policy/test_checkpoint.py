"""Unit tests for checkpoint policy evaluation."""

import pytest

from benchmarks.ext.policy import (
    HistoryAwarePolicy,
    NoCheckpointPolicy,
    PeriodicPolicy,
    SizeAwareYoungPolicy,
    evaluate_checkpoint_policy,
)
from repro.frame import Frame
from tests.core.helpers import jobs


def interruptions(rows):
    """(job_id, category) pairs."""
    return Frame.from_rows(
        [{"job_id": j, "category": c} for j, c in rows],
        columns=["job_id", "category"],
    )


class TestPolicies:
    def test_periodic_schedule(self):
        times = PeriodicPolicy(interval=1000.0).checkpoint_times(1, 3500.0, False)
        assert times == [1000.0, 2000.0, 3000.0]

    def test_none_schedule(self):
        assert NoCheckpointPolicy().checkpoint_times(1, 1e6, True) == []

    def test_young_interval_shrinks_with_size(self):
        p = SizeAwareYoungPolicy(mtti=100000.0, checkpoint_cost=100.0)
        wide = p.checkpoint_times(64, 50000.0, False)
        narrow = p.checkpoint_times(1, 50000.0, False)
        assert len(wide) > len(narrow)

    def test_history_aware_defers_first_hour(self):
        p = HistoryAwarePolicy(mtti=5000.0, checkpoint_cost=50.0)
        with_history = p.checkpoint_times(16, 20000.0, True)
        without = p.checkpoint_times(16, 20000.0, False)
        assert all(t > 3600.0 for t in with_history)
        assert len(without) >= len(with_history)
        assert any(t <= 3600.0 for t in without)


class TestEvaluation:
    def test_clean_jobs_only_pay_overhead(self):
        jl = jobs([(1, "/a", 0.0, 5000.0, "R00-M0", 2)])
        out = evaluate_checkpoint_policy(
            PeriodicPolicy(interval=1000.0), jl, interruptions([]),
            checkpoint_cost=100.0,
        )
        # checkpoints at 1000..4000 fit (t + cost <= 5000)
        assert out.checkpoints_written == 4
        assert out.overhead_mp_seconds == 4 * 100.0 * 2
        assert out.lost_mp_seconds == 0.0

    def test_system_interruption_loses_since_last_checkpoint(self):
        jl = jobs([(1, "/a", 0.0, 2500.0, "R00-M0", 1)])
        out = evaluate_checkpoint_policy(
            PeriodicPolicy(interval=1000.0), jl, interruptions([(1, 1)]),
            checkpoint_cost=100.0,
        )
        # checkpoints at 1000, 2000 written; lost 2500 - 2100 = 400
        assert out.lost_mp_seconds == pytest.approx(400.0)
        assert out.interrupted_jobs == 1

    def test_no_checkpoint_loses_everything(self):
        jl = jobs([(1, "/a", 0.0, 2500.0, "R00-M0", 4)])
        out = evaluate_checkpoint_policy(
            NoCheckpointPolicy(), jl, interruptions([(1, 1)])
        )
        assert out.lost_mp_seconds == pytest.approx(2500.0 * 4)

    def test_app_error_checkpoints_save_nothing(self):
        jl = jobs([(1, "/a", 0.0, 2500.0, "R00-M0", 1)])
        out = evaluate_checkpoint_policy(
            PeriodicPolicy(interval=1000.0), jl, interruptions([(1, 2)]),
            checkpoint_cost=100.0,
        )
        assert out.lost_mp_seconds == pytest.approx(2500.0)
        assert out.overhead_mp_seconds > 0  # overhead still paid

    def test_app_history_learned_in_replay_order(self):
        """The second run of a code that app-failed earlier sees
        had_app_history=True."""

        class Probe:
            name = "probe"

            def __init__(self):
                self.calls = []

            def checkpoint_times(self, size, runtime, had_app_history):
                self.calls.append(had_app_history)
                return []

        probe = Probe()
        jl = jobs(
            [
                (1, "/buggy", 0.0, 100.0, "R00-M0", 1),
                (2, "/buggy", 1000.0, 1100.0, "R00-M0", 1),
            ]
        )
        evaluate_checkpoint_policy(probe, jl, interruptions([(1, 2)]))
        assert probe.calls == [False, True]

    def test_total_cost(self):
        jl = jobs([(1, "/a", 0.0, 2500.0, "R00-M0", 1)])
        out = evaluate_checkpoint_policy(
            PeriodicPolicy(interval=1000.0), jl, interruptions([(1, 1)]),
            checkpoint_cost=100.0,
        )
        assert out.total_cost == out.overhead_mp_seconds + out.lost_mp_seconds
