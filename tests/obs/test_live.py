"""The live sampler: windows tile, ring bounds, accessors, telemetry."""

import json

import pytest

from repro.obs import (
    LiveTelemetry,
    MetricRing,
    MetricSample,
    MetricsRegistry,
    MetricsSampler,
    accumulate_samples,
    read_ops_log,
    sample_value,
)
from tests.obs.opslog_checks import validate_ops_log


class FakeClock:
    def __init__(self, t=0.0):
        self.t = t

    def __call__(self):
        return self.t

    def advance(self, dt):
        self.t += dt
        return self.t


@pytest.fixture()
def registry():
    return MetricsRegistry()


def make_sampler(registry, clock, interval_s=5.0, **kw):
    return MetricsSampler(
        registry=registry, interval_s=interval_s, clock=clock, **kw
    )


class TestSampler:
    def test_windows_tile_counter_increments(self, registry):
        """Every increment lands in exactly one window — the sum of
        window deltas equals the cumulative total."""
        clock = FakeClock()
        sampler = make_sampler(registry, clock)
        c = registry.counter("work")
        total = 0
        samples = []
        for step in range(1, 6):
            c.inc(step)
            total += step
            samples.append(sampler.sample(clock.advance(5.0)))
        deltas = [sample_value(s, "work", kind="counter") for s in samples]
        assert sum(deltas) == total == registry.value("work")
        assert deltas == [1, 2, 3, 4, 5]

    def test_window_s_is_time_since_previous_sample(self, registry):
        clock = FakeClock(100.0)
        sampler = make_sampler(registry, clock)
        s1 = sampler.sample(clock.advance(7.0))
        s2 = sampler.sample(clock.advance(2.5))
        assert s1.window_s == 7.0
        assert s2.window_s == 2.5

    def test_maybe_sample_respects_interval(self, registry):
        clock = FakeClock()
        sampler = make_sampler(registry, clock, interval_s=5.0)
        assert sampler.maybe_sample(clock.advance(2.0)) is None
        assert sampler.maybe_sample(clock.advance(2.0)) is None
        assert sampler.maybe_sample(clock.advance(2.0)) is not None
        # interval restarts from the captured sample
        assert sampler.maybe_sample(clock.advance(4.0)) is None

    def test_rejects_nonpositive_interval(self, registry):
        with pytest.raises(ValueError):
            make_sampler(registry, FakeClock(), interval_s=0.0)

    def test_gauges_are_levels_not_deltas(self, registry):
        clock = FakeClock()
        sampler = make_sampler(registry, clock)
        registry.gauge("depth").set(10.0)
        s1 = sampler.sample(clock.advance(5.0))
        s2 = sampler.sample(clock.advance(5.0))  # no change between
        assert sample_value(s1, "depth") == 10.0
        assert sample_value(s2, "depth") == 10.0

    def test_background_thread_samples(self, registry):
        sampler = MetricsSampler(registry=registry, interval_s=0.01)
        registry.counter("c").inc(3)
        with sampler:
            pass  # stop() captures the tail window even if none fired
        samples = sampler.ring.samples()
        assert samples
        total = sum(
            sample_value(s, "c", kind="counter") or 0 for s in samples
        )
        assert total == 3


class TestRing:
    def test_capacity_bounds(self):
        ring = MetricRing(capacity=3)
        for t in range(10):
            ring.append(MetricSample(t=float(t), window_s=1.0, records=()))
        assert len(ring) == 3
        assert [s.t for s in ring.samples()] == [7.0, 8.0, 9.0]
        assert ring.latest().t == 9.0

    def test_empty(self):
        ring = MetricRing()
        assert len(ring) == 0 and ring.latest() is None

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            MetricRing(capacity=0)


class TestSampleValue:
    def rec(self, **kw):
        base = {"name": "m", "kind": "counter", "labels": {}, "value": 1.0}
        base.update(kw)
        return base

    def test_label_subset_match_and_sum(self):
        s = MetricSample(
            t=0.0,
            window_s=2.0,
            records=(
                self.rec(labels={"table": "ras"}, value=3.0),
                self.rec(labels={"table": "job"}, value=5.0),
            ),
        )
        assert sample_value(s, "m") == 8.0  # no selector: both sum
        assert sample_value(s, "m", table="ras") == 3.0
        assert sample_value(s, "m", rate=True) == 4.0  # 8 / 2 s

    def test_absent_counter_is_zero_absent_gauge_is_none(self):
        s = MetricSample(t=0.0, window_s=1.0, records=())
        assert sample_value(s, "nope", kind="counter") == 0.0
        assert sample_value(s, "nope", kind="gauge") is None
        assert sample_value(s, "nope") is None  # unknown kind: unknown

    def test_never_set_monotonic_gauge_is_none(self):
        s = MetricSample(
            t=0.0,
            window_s=1.0,
            records=(
                self.rec(kind="monotonic_gauge", value=None),
            ),
        )
        assert sample_value(s, "m") is None

    def test_histogram_counts(self):
        s = MetricSample(
            t=0.0,
            window_s=2.0,
            records=(
                {"name": "h", "kind": "histogram", "labels": {},
                 "count": 6, "sum": 12.0, "min": 1.0, "max": 3.0},
            ),
        )
        assert sample_value(s, "h") == 6.0
        assert sample_value(s, "h", rate=True) == 3.0

    def test_round_trip_record(self):
        s = MetricSample(t=1.0, window_s=2.0, records=(self.rec(),))
        again = MetricSample.from_record(
            json.loads(json.dumps(s.as_record()))
        )
        assert again == s


class TestAccumulate:
    def test_counters_sum_gauges_last(self, registry):
        clock = FakeClock()
        sampler = make_sampler(registry, clock)
        registry.counter("c").inc(2)
        registry.gauge("g").set(1.0)
        sampler.sample(clock.advance(5.0))
        registry.counter("c").inc(3)
        registry.gauge("g").set(9.0)
        sampler.sample(clock.advance(5.0))
        by_name = {
            r["name"]: r for r in accumulate_samples(sampler.ring.samples())
        }
        assert by_name["c"]["value"] == 5
        assert by_name["g"]["value"] == 9.0

    def test_monotonic_null_does_not_reset(self, registry):
        clock = FakeClock()
        sampler = make_sampler(registry, clock)
        registry.monotonic_gauge("pos").set(42.0)
        sampler.sample(clock.advance(5.0))
        sampler.sample(clock.advance(5.0))  # not set since: exports null
        (rec,) = accumulate_samples(sampler.ring.samples())
        assert rec["value"] == 42.0

    def test_histograms_merge_extremes(self, registry):
        clock = FakeClock()
        sampler = make_sampler(registry, clock)
        h = registry.histogram("lat")
        h.observe(1.0)
        sampler.sample(clock.advance(5.0))
        h.observe(9.0)
        sampler.sample(clock.advance(5.0))
        (rec,) = accumulate_samples(sampler.ring.samples())
        assert rec["count"] == 2
        assert (rec["min"], rec["max"]) == (1.0, 9.0)


class TestLiveTelemetry:
    def test_record_cycle_writes_all_three_files(self, tmp_path, registry):
        clock = FakeClock(0.0)
        live = LiveTelemetry(
            tmp_path / "ops",
            rules=["hot: rate(work) > 5 for 0 clear 1 severity ERROR"],
            interval_s=1.0,
            registry=registry,
            machine="t1",
            clock=clock,
        )
        c = registry.counter("work")
        status = []
        for _ in range(4):
            c.inc(100)
            clock.advance(2.0)
            status.append(live.record_cycle({"cycle": 1}))
        c.inc(0)
        clock.advance(30.0)
        status.append(live.record_cycle({"cycle": 5}, final=True))
        # the ERROR alert fired while hot → unhealthy; cleared at the end
        assert "unhealthy" in status
        assert status[-1] == "healthy"
        records = read_ops_log(live.ops_log.jsonl_path)
        assert validate_ops_log(records) == []
        kinds = {r["type"] for r in records}
        assert kinds == {"header", "sample", "heartbeat", "alert"}
        assert live.health_path.exists()
        assert (tmp_path / "ops" / "ops_ras.psv").exists()

    def test_final_cycle_flushes_tail_window(self, tmp_path, registry):
        clock = FakeClock(0.0)
        live = LiveTelemetry(
            tmp_path / "ops", interval_s=100.0, registry=registry,
            clock=clock,
        )
        registry.counter("tail").inc(7)
        clock.advance(1.0)  # far below interval_s
        live.record_cycle({}, final=True)
        records = read_ops_log(live.ops_log.jsonl_path)
        samples = [r for r in records if r["type"] == "sample"]
        assert len(samples) == 1  # forced despite the interval
        s = MetricSample.from_record(samples[0])
        assert sample_value(s, "tail", kind="counter") == 7.0
