"""Bounded-lateness properties: any arrival pattern inside the horizon
converges bit-identically to batch; anything beyond it is quarantined,
counted, and never crashed on."""

import numpy as np
import pytest

from repro.core.equivalence import diff_results
from repro.core.pipeline import CoAnalysis
from repro.logs import read_ras_log
from repro.logs.job import JobLog, empty_job_log
from repro.logs.ras import RasLog, empty_ras_log
from repro.obs.metrics import get_metrics
from repro.stream import (
    BoundedLatenessStream,
    LateRecordSink,
    StreamError,
)
from tests.stream.conftest import make_jobs, make_ras


def time_groups(ras, job, groups):
    """Cut both logs into equal-width half-open time slices."""
    t = ras.frame["event_time"]
    s = job.frame["start_time"]
    lo = min(float(t.min()), float(s.min()))
    hi = max(float(t.max()), float(s.max()))
    edges = np.linspace(lo, hi, groups + 1)
    edges[-1] = np.nextafter(hi, np.inf)
    width = float(edges[1] - edges[0])
    slices = [
        (
            ras.select_time(float(a), float(b)),
            job.select_time(float(a), float(b)),
        )
        for a, b in zip(edges[:-1], edges[1:])
    ]
    return slices, width


def shuffle_rows(log, cls, empty, rng):
    frame = log.frame
    if not frame.num_rows:
        return empty()
    return cls(frame.take(rng.permutation(frame.num_rows)))


def deliver(bls, slices, order, rng):
    """Feed slices in *order*, rows shuffled within each delivery, with
    the producer watermark = newest key seen so far."""
    watermark = float("-inf")
    updates = []
    for i in order:
        ras_k, job_k = slices[i]
        keys = [
            float(ras_k.frame["event_time"].max())
            if len(ras_k)
            else float("-inf"),
            float(job_k.frame["start_time"].max())
            if len(job_k)
            else float("-inf"),
        ]
        watermark = max(watermark, np.nextafter(max(keys), np.inf))
        updates.append(
            bls.ingest(
                shuffle_rows(ras_k, RasLog, empty_ras_log, rng),
                shuffle_rows(job_k, JobLog, empty_job_log, rng),
                watermark,
            )
        )
    return updates


def adjacent_swaps(n, rng):
    """A bounded-disorder permutation: displacement at most one slot."""
    order = list(range(n))
    for i in range(0, n - 1, 2):
        if rng.random() < 0.5:
            order[i], order[i + 1] = order[i + 1], order[i]
    return order


class TestWithinHorizon:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_bounded_disorder_is_bit_identical(self, trace, batch, seed):
        """Adjacent-slice swaps + intra-slice shuffles, horizon = 3
        slice widths: zero drops, and the final result is bit-equal."""
        ras, job = trace
        rng = np.random.default_rng(seed)
        slices, width = time_groups(ras, job, 20)
        bls = BoundedLatenessStream(allowed_lateness=3.0 * width)
        updates = deliver(bls, slices, adjacent_swaps(len(slices), rng), rng)
        assert sum(sum(u.dropped.values()) for u in updates) == 0
        # disorder was real (late-but-mergeable rows) and the stream
        # still released work incrementally, not only at the end
        assert sum(sum(u.merged_late.values()) for u in updates) > 0
        assert any(u.update is not None for u in updates)
        assert diff_results(bls.result(), batch) == []

    @pytest.mark.parametrize("seed", [10, 11, 12])
    def test_full_shuffle_inside_full_span_horizon(self, trace, batch, seed):
        """With the horizon covering the whole trace, ANY arrival order
        converges bit-identically."""
        ras, job = trace
        rng = np.random.default_rng(seed)
        slices, width = time_groups(ras, job, 12)
        span = 12 * width
        bls = BoundedLatenessStream(allowed_lateness=span + 1.0)
        order = list(rng.permutation(len(slices)))
        updates = deliver(bls, slices, order, rng)
        assert sum(sum(u.dropped.values()) for u in updates) == 0
        assert diff_results(bls.result(), batch) == []

    def test_in_order_zero_lateness_matches_strict_replay(
        self, trace, batch
    ):
        """allowed_lateness=0 with ordered arrivals degenerates to the
        strict streaming contract."""
        ras, job = trace
        rng = np.random.default_rng(0)
        slices, _ = time_groups(ras, job, 8)
        bls = BoundedLatenessStream(allowed_lateness=0.0)
        # in order, and rows inside each slice kept sorted
        watermark = float("-inf")
        for ras_k, job_k in slices:
            keys = [
                float(ras_k.frame["event_time"].max())
                if len(ras_k)
                else float("-inf"),
                float(job_k.frame["start_time"].max())
                if len(job_k)
                else float("-inf"),
            ]
            watermark = max(watermark, np.nextafter(max(keys), np.inf))
            bls.ingest(ras_k, job_k, watermark)
        assert diff_results(bls.result(), batch) == []


def stale_ras_record(ras, recid=999_999):
    """A copy of the oldest RAS row under a fresh recid."""
    row = ras.frame.take(np.array([0]))
    return RasLog(
        row.with_column("recid", np.array([recid], dtype=np.int64))
    )


class TestBeyondHorizon:
    def test_too_late_record_dropped_never_crashes(self, trace):
        ras, job = trace
        slices, width = time_groups(ras, job, 10)
        bls = BoundedLatenessStream(allowed_lateness=0.0)
        deliver(bls, slices, range(len(slices)), np.random.default_rng(0))
        stale = stale_ras_record(ras)
        update = bls.ingest(stale, empty_job_log(), bls.producer_watermark)
        assert update.dropped == {"ras": 1, "job": 0}
        assert bls.late_dropped["ras"] == 1

    def test_result_is_batch_without_the_dropped_record(self, trace, batch):
        """Dropping changes the result exactly as if the record had
        been absent from the batch input — the honest semantics."""
        ras, job = trace
        slices, _ = time_groups(ras, job, 10)
        bls = BoundedLatenessStream(allowed_lateness=0.0)
        deliver(bls, slices, range(len(slices)), np.random.default_rng(0))
        bls.ingest(
            stale_ras_record(ras), empty_job_log(), bls.producer_watermark
        )
        assert diff_results(bls.result(), batch) == []

    def test_sink_quarantines_readable_records(self, trace, tmp_path):
        ras, job = trace
        slices, _ = time_groups(ras, job, 10)
        sink = LateRecordSink(tmp_path / "late")
        bls = BoundedLatenessStream(allowed_lateness=0.0, sink=sink)
        deliver(bls, slices, range(len(slices)), np.random.default_rng(0))
        for recid in (999_000, 999_001):
            bls.ingest(
                stale_ras_record(ras, recid),
                empty_job_log(),
                bls.producer_watermark,
            )
        assert sink.written == {"ras": 2, "job": 0}
        quarantined = read_ras_log(sink.path_for("ras"))
        assert sorted(quarantined.frame["recid"]) == [999_000, 999_001]
        # appends share one header: both drops landed in one file
        header_count = sum(
            1
            for line in sink.path_for("ras").read_text().splitlines()
            if line.startswith("recid")
        )
        assert header_count == 1

    def test_sink_append_survives_torn_final_line(self, tmp_path):
        """A crash mid-append leaves a torn last row: the next append
        ends it first, so the torn row costs at most one bad line and
        every later row reads back."""
        frame = make_ras(5).frame
        sink = LateRecordSink(tmp_path / "late")
        sink.write("ras", frame.head(3))
        path = sink.path_for("ras")
        lines = path.read_bytes().splitlines(keepends=True)
        cut = sum(len(line) for line in lines[:3]) + 20  # into row 3
        path.write_bytes(path.read_bytes()[:cut])
        sink.write("ras", frame.take(np.array([3, 4])))

        log = read_ras_log(path, policy="quarantine")
        assert list(log.frame["recid"]) == [1, 2, 4, 5]
        assert log.quarantine.bad_rows <= 1

    def test_drop_metric_counts(self, trace):
        ras, job = trace
        registry = get_metrics()
        before = registry.value("stream.late_dropped", table="ras") or 0
        slices, _ = time_groups(ras, job, 6)
        bls = BoundedLatenessStream(allowed_lateness=0.0)
        deliver(bls, slices, range(len(slices)), np.random.default_rng(0))
        bls.ingest(
            stale_ras_record(ras), empty_job_log(), bls.producer_watermark
        )
        after = registry.value("stream.late_dropped", table="ras")
        assert after == before + 1


class TestContract:
    def test_watermark_must_not_regress(self, trace):
        ras, job = trace
        bls = BoundedLatenessStream(allowed_lateness=10.0)
        bls.ingest(empty_ras_log(), empty_job_log(), 100.0)
        with pytest.raises(StreamError, match="backwards"):
            bls.ingest(empty_ras_log(), empty_job_log(), 99.0)

    def test_negative_horizon_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            BoundedLatenessStream(allowed_lateness=-1.0)

    def test_update_reports_buffered_rows(self):
        ras = make_ras(50, seed=8)
        job = make_jobs(ras, 10, seed=8)
        hi = float(
            max(ras.frame["event_time"].max(), job.frame["start_time"].max())
        )
        bls = BoundedLatenessStream(allowed_lateness=1e9)
        update = bls.ingest(ras, job, np.nextafter(hi, np.inf))
        # horizon exceeds the span: everything is still buffered
        assert update.buffered == 60
        assert len(update.released_ras) == 0
        assert len(update.released_job) == 0

    def test_state_roundtrip_preserves_buffer_and_counters(self):
        ras = make_ras(50, seed=8)
        job = make_jobs(ras, 10, seed=8)
        hi = float(
            max(ras.frame["event_time"].max(), job.frame["start_time"].max())
        )
        bls = BoundedLatenessStream(allowed_lateness=1e9)
        bls.ingest(ras, job, np.nextafter(hi, np.inf))

        clone = BoundedLatenessStream()
        clone.restore(bls.state_dict(), bls.buffer_frames())
        assert clone.allowed_lateness == 1e9
        assert clone.producer_watermark == bls.producer_watermark
        assert clone.buffered_rows == 60
        assert diff_results(clone.result(), bls.result()) == []
