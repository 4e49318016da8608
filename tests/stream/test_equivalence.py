"""Streaming == batch, bit for bit.

The acceptance contract: replaying a trace in K increments through
:class:`repro.stream.StreamingCoAnalysis` reproduces the one-shot batch
pipeline exactly — filtered event frames, match products, filter stats,
Weibull fit bits and observation verdicts — for any K and any cut
placement, including cuts pinned exactly on record times, cuts inside
an open chain/causal window, and empty increments."""

import numpy as np
import pytest

from repro.core.equivalence import diff_results
from repro.core.pipeline import CoAnalysis
from repro.stream import (
    StreamError,
    StreamingCoAnalysis,
    replay_trace,
    split_trace,
)

from tests.stream.conftest import make_causal_trace


def replay_edges(ras, job, edges):
    runner = StreamingCoAnalysis()
    updates = [
        runner.ingest_increment(inc)
        for inc in split_trace(ras, job, edges=edges)
    ]
    return updates, runner.result()


class TestBitIdentity:
    @pytest.mark.parametrize("k", [1, 2, 7])
    def test_equal_width_cuts(self, trace, batch, k):
        ras, job = trace
        updates, result = replay_trace(ras, job, increments=k)
        assert len(updates) == k
        assert diff_results(result, batch) == []

    def test_cut_pinned_on_event_time(self, trace, batch):
        ras, job = trace
        t = ras.frame["event_time"]
        edges = [
            float(t[0]),
            float(t[400]),
            float(t[900]),
            np.nextafter(float(max(t[-1], job.frame["start_time"].max())),
                         np.inf),
        ]
        _, result = replay_edges(ras, job, edges)
        assert diff_results(result, batch) == []

    def test_empty_increments(self, trace, batch):
        ras, job = trace
        t = ras.frame["event_time"]
        cut = float(t[700])
        hi = np.nextafter(
            float(max(t[-1], job.frame["start_time"].max())), np.inf
        )
        # duplicate edges produce two genuinely empty increments
        edges = [float(t[0]), cut, cut, cut, hi]
        updates, result = replay_edges(ras, job, edges)
        assert len(updates) == 4
        assert diff_results(result, batch) == []

    def test_fuzzed_cut_positions(self, trace, batch):
        """Random cut counts and placements — mid-chain, mid-open-
        interval, exact record boundaries — all bit-identical."""
        ras, job = trace
        t = ras.frame["event_time"]
        hi = np.nextafter(
            float(max(t[-1], job.frame["start_time"].max())), np.inf
        )
        rng = np.random.default_rng(2011)
        for trial in range(8):
            k = int(rng.integers(2, 9))
            if trial % 2 == 0:
                # exact record boundaries
                idx = np.sort(rng.choice(len(t) - 2, size=k - 1,
                                         replace=False)) + 1
                cuts = [float(t[i]) for i in idx]
            else:
                # arbitrary positions inside open intervals
                cuts = sorted(
                    float(t[0]) + rng.random(k - 1) * (float(t[-1]) - float(t[0]))
                )
            edges = [float(t[0]), *cuts, hi]
            _, result = replay_edges(ras, job, edges)
            assert diff_results(result, batch) == [], f"trial {trial}: {edges}"


class TestCausalRules:
    """The crafted trigger->follower trace actually mines a rule, so
    the incremental causality path (accumulate + finalize remap) is
    validated, not vacuously equal."""

    @pytest.fixture(scope="class")
    def causal(self):
        ras, job = make_causal_trace()
        return ras, job, CoAnalysis().run(ras, job)

    def test_batch_mines_a_rule(self, causal):
        _, _, batch = causal
        stats = batch.filter_stats
        assert stats.after_causal < stats.after_spatial

    @pytest.mark.parametrize("k", [2, 5])
    def test_stream_reproduces_rules(self, causal, k):
        ras, job, batch = causal
        pipeline = CoAnalysis()
        runner = StreamingCoAnalysis(pipeline=pipeline)
        for inc in split_trace(ras, job, increments=k):
            runner.ingest_increment(inc)
        result = runner.result()
        assert diff_results(result, batch) == []
        rules = pipeline.filters.causal.rules
        assert rules, "stream mined no causal rules"
        assert [(r.trigger, r.follower, r.support) for r in rules] == [
            ("_A", "_B", 25)
        ]

    def test_cut_inside_open_causal_window(self, causal):
        """A cut 10 s after a trigger — mid causal window, before the
        follower arrives — must not lose or double the pair."""
        ras, job, batch = causal
        t = ras.frame["event_time"]
        hi = np.nextafter(
            float(max(t[-1], job.frame["end_time"].max())), np.inf
        )
        cut = float(t[20]) + 10.0  # between an _A and its _B
        _, result = replay_edges(ras, job, [float(t[0]), cut, hi])
        assert diff_results(result, batch) == []


class TestWatermarkDiscipline:
    def test_backwards_watermark_raises(self, trace):
        ras, job = trace
        runner = StreamingCoAnalysis()
        incs = split_trace(ras, job, increments=3)
        runner.ingest_increment(incs[0])
        with pytest.raises(StreamError, match="backwards"):
            runner.ingest(incs[1].ras, incs[1].job, incs[0].watermark - 1.0)

    def test_late_record_raises(self, trace):
        ras, job = trace
        runner = StreamingCoAnalysis()
        incs = split_trace(ras, job, increments=2)
        runner.ingest_increment(incs[0])
        with pytest.raises(StreamError, match="before the previous watermark"):
            runner.ingest(incs[0].ras, incs[0].job, incs[1].watermark)

    def test_record_at_watermark_raises(self, trace):
        ras, job = trace
        inc = split_trace(ras, job, increments=1)[0]
        runner = StreamingCoAnalysis()
        with pytest.raises(StreamError, match="at or past the new watermark"):
            runner.ingest(
                inc.ras, inc.job, float(inc.ras.frame["event_time"].max())
            )

    def test_ingest_after_result_raises(self, trace):
        ras, job = trace
        runner = StreamingCoAnalysis()
        incs = split_trace(ras, job, increments=2)
        runner.ingest_increment(incs[0])
        runner.result()
        with pytest.raises(StreamError, match="finalized"):
            runner.ingest_increment(incs[1])


class TestRollingUpdates:
    def test_counts_cumulative_and_consistent(self, trace, batch):
        ras, job = trace
        updates, result = replay_trace(ras, job, increments=7)
        raw = [u.events_raw for u in updates]
        assert raw == sorted(raw)
        last = updates[-1]
        assert last.events_raw == result.filter_stats.raw
        assert last.after_temporal == result.filter_stats.after_temporal
        assert last.after_spatial == result.filter_stats.after_spatial
        assert last.watermark > float(ras.frame["event_time"].max())

    def test_weibull_refit_and_deltas(self, trace):
        ras, job = trace
        updates, _ = replay_trace(ras, job, increments=7)
        fitted = [u for u in updates if u.fit is not None]
        assert fitted, "no increment produced a Weibull refit"
        # once two consecutive fits exist the deltas become finite
        tail = [
            u
            for prev, u in zip(updates, updates[1:])
            if prev.fit is not None and u.fit is not None
        ]
        assert tail
        assert all(np.isfinite(u.shape_delta) for u in tail)
        assert all(np.isfinite(u.scale_delta) for u in tail)
