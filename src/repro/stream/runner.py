"""The incremental co-analysis runner (the ``repro.stream`` tentpole).

:class:`StreamingCoAnalysis` consumes a trace increment by increment —
each :meth:`~StreamingCoAnalysis.ingest` takes one (RAS chunk, job
chunk, watermark) triple and touches **only the new tail plus the open
frontier**: carried chain state for the temporal/spatial filters
(:class:`repro.stream.filters.ChainState`), the causality accumulator's
window tail, and the matcher's pending-event/job/raw buffers
(:class:`repro.stream.matcher.StreamMatcher`). Per increment it emits a
rolling :class:`StreamUpdate` (counts, interruption rate, a Weibull
refit of the survivor interarrivals with change deltas).

:meth:`~StreamingCoAnalysis.result` finalizes the frontier and feeds
the accumulated tables through :meth:`repro.core.pipeline.CoAnalysis.complete`
— the *identical* downstream code the batch pipeline runs — so
replaying a trace in K increments is bit-identical to the one-shot
batch run for any K, cuts on window edges included (the equivalence
:mod:`repro.core.equivalence` checks and ``tests/stream`` pins).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from repro.core.events import EVENT_COLUMNS, FatalEventTable, fatal_event_table
from repro.core.filtering.chain import FilterStats
from repro.core.pipeline import CoAnalysis, CoAnalysisResult
from repro.frame import Frame, concat
from repro.logs.job import JobLog, empty_job_log
from repro.logs.ras import RasLog
from repro.obs.metrics import get_metrics
from repro.obs.trace import maybe_span
from repro.stats.weibull import WeibullFit, fit_weibull
from repro.stream.filters import CausalState, ChainState
from repro.stream.matcher import StreamMatcher
from repro.stream.windows import Increment

__all__ = ["StreamError", "StreamUpdate", "StreamingCoAnalysis", "replay_trace"]

_EVENT_DTYPES = {
    "event_id": np.int64,
    "event_time": np.float64,
    "mp_lo": np.int64,
    "mp_hi": np.int64,
}


class StreamError(RuntimeError):
    """A watermark violation or use of a finalized stream."""


@dataclass(frozen=True)
class StreamUpdate:
    """Rolling observations after one increment (all counts cumulative)."""

    index: int
    watermark: float
    wall_s: float
    events_raw: int
    after_temporal: int
    after_spatial: int
    pending_events: int
    events_flushed: int
    pairs_emitted: int
    interrupted_jobs: int
    #: distinct interrupted jobs per day of stream coverage so far
    interruption_rate_per_day: float
    #: Weibull refit over the spatial-survivor interarrivals seen so
    #: far; None while the sample cannot support a fit
    fit: WeibullFit | None = None
    #: change vs the previous increment's fit (NaN when either is absent)
    shape_delta: float = float("nan")
    scale_delta: float = float("nan")


def _empty_events() -> Frame:
    return Frame(
        {
            c: np.array([], dtype=_EVENT_DTYPES.get(c, object))
            for c in EVENT_COLUMNS
        }
    )


@dataclass
class StreamingCoAnalysis:
    """Append-only co-analysis over a watermarked increment stream.

    Wraps a configured batch :class:`~repro.core.pipeline.CoAnalysis`;
    all thresholds (filters, matching tolerance) are taken from it, and
    its downstream stages produce the final result.
    """

    pipeline: CoAnalysis = field(default_factory=CoAnalysis)
    source: str = "stream"

    def __post_init__(self) -> None:
        f = self.pipeline.filters
        self._temporal = ChainState(
            ("errcode", "location"), f.temporal.threshold
        )
        self._spatial = ChainState(("errcode",), f.spatial.threshold)
        self._causal = CausalState(
            f.causal.window, f.causal.min_support, f.causal.min_confidence
        )
        self._matcher = StreamMatcher(self.pipeline.matcher.tolerance)
        self.watermark = float("-inf")
        self.increments = 0
        self._fatal_offset = 0
        self._raw = 0
        self._after_temporal = 0
        self._after_spatial = 0
        self._survivors: list[Frame] = []
        self._job_frames: list[Frame] = []
        # time-span tracking, mirroring pipeline._window's inputs
        self._ras_span: tuple[float, float] | None = None
        self._job_span: tuple[float, float] | None = None
        # rolling-observation state
        self._gap_arrays: list[np.ndarray] = []
        self._last_survivor_time: float | None = None
        self._interrupted: set[int] = set()
        self._pairs_cursor = 0
        self._prev_fit: WeibullFit | None = None
        self._result: CoAnalysisResult | None = None

    # ------------------------------------------------------------------

    def ingest(
        self, ras: RasLog, job: JobLog, watermark: float
    ) -> StreamUpdate:
        """Fold one increment in and advance the watermark.

        Every record key (RAS event time, job start time) must lie in
        ``[previous watermark, watermark)`` — the producer's promise
        that increments arrive in event-time order. Violations raise
        :class:`StreamError` rather than silently corrupting the
        frontier.
        """
        if self._result is not None:
            raise StreamError("stream already finalized by result()")
        watermark = float(watermark)
        if not watermark >= self.watermark:
            raise StreamError(
                f"watermark went backwards: {watermark} < {self.watermark}"
            )
        self._validate_keys(ras.frame["event_time"], watermark, "RAS event")
        self._validate_keys(job.frame["start_time"], watermark, "job start")

        t0 = perf_counter()
        with maybe_span("stream.increment", increment=self.increments):
            if len(ras):
                self._ras_span = _merge_span(self._ras_span, ras.time_span())
            if len(job):
                self._job_span = _merge_span(self._job_span, job.time_span())
                self._job_frames.append(job.frame)

            frame = fatal_event_table(ras).frame
            n_fatal = frame.num_rows
            if n_fatal:
                frame = frame.with_column(
                    "event_id", frame["event_id"] + self._fatal_offset
                )
            self._fatal_offset += n_fatal
            self._raw += n_fatal

            t_frame = frame.filter(self._temporal.apply(frame))
            self._after_temporal += t_frame.num_rows
            s_frame = t_frame.filter(self._spatial.apply(t_frame))
            self._after_spatial += s_frame.num_rows
            if s_frame.num_rows:
                self._survivors.append(s_frame)
                self._track_gaps(s_frame["event_time"])
            self._causal.update(
                s_frame["errcode"], s_frame["event_time"], watermark
            )
            self._matcher.ingest(s_frame, job.frame, t_frame, watermark)
            while self._pairs_cursor < len(self._matcher._pair_frames):
                pairs = self._matcher._pair_frames[self._pairs_cursor]
                self._interrupted.update(
                    int(j) for j in np.unique(pairs["job_id"])
                )
                self._pairs_cursor += 1

            self.watermark = watermark
            self.increments += 1
        wall = perf_counter() - t0
        update = self._rolling_update(wall)
        self._record_metrics(update)
        self._prev_fit = update.fit
        return update

    def ingest_increment(self, increment: Increment) -> StreamUpdate:
        """Ingest one :func:`repro.stream.windows.split_trace` cut."""
        return self.ingest(increment.ras, increment.job, increment.watermark)

    def result(self) -> CoAnalysisResult:
        """Finalize the frontier and run the batch downstream stages.

        Finalization is terminal: further :meth:`ingest` calls raise.
        The result is computed once and cached.
        """
        if self._result is not None:
            return self._result
        self._matcher.finalize()
        keep, rules = self._causal.finalize()
        survivors = (
            concat(self._survivors) if self._survivors else _empty_events()
        )
        events_filtered = FatalEventTable(survivors.filter(keep))
        stats = FilterStats(
            raw=self._raw,
            after_temporal=self._after_temporal,
            after_spatial=self._after_spatial,
            after_causal=int(keep.sum()),
        )
        # surface the stream's products where batch callers look for them
        self.pipeline.filters.stats = stats
        self.pipeline.filters.causal.rules = rules
        match = self._matcher.result(keep)
        job_log = (
            JobLog(concat(self._job_frames))
            if self._job_frames
            else empty_job_log()
        )
        self._result = self.pipeline.complete(
            events_filtered=events_filtered,
            match=match,
            job_log=job_log,
            filter_stats=stats,
            window=self._window(),
            source=self.source,
        )
        return self._result

    # ------------------------------------------------------------------

    def _validate_keys(
        self, times: np.ndarray, watermark: float, what: str
    ) -> None:
        if not len(times):
            return
        lo, hi = float(times.min()), float(times.max())
        if lo < self.watermark:
            raise StreamError(
                f"{what} at t={lo} is before the previous watermark"
                f" {self.watermark} (late data is not supported)"
            )
        if hi >= watermark:
            raise StreamError(
                f"{what} at t={hi} is at or past the new watermark"
                f" {watermark} (watermarks are exclusive upper bounds)"
            )

    def _track_gaps(self, times: np.ndarray) -> None:
        if self._last_survivor_time is not None:
            gaps = np.diff(
                np.concatenate([[self._last_survivor_time], times])
            )
        else:
            gaps = np.diff(times)
        gaps = gaps[gaps > 0]
        if len(gaps):
            self._gap_arrays.append(gaps)
        self._last_survivor_time = float(times[-1])

    def _window(self) -> tuple[float, float]:
        spans = [s for s in (self._ras_span, self._job_span) if s is not None]
        if not spans:
            return 0.0, 0.0
        t0 = min(s[0] for s in spans)
        t1 = max(s[1] for s in spans)
        return t0, max(t1 - t0, 1.0)

    def _rolling_update(self, wall: float) -> StreamUpdate:
        rate = 0.0
        spans = [s for s in (self._ras_span, self._job_span) if s is not None]
        if spans and self._interrupted:
            t0 = min(s[0] for s in spans)
            days = max(self.watermark - t0, 1.0) / 86400.0
            rate = len(self._interrupted) / days
        fit = None
        if self._gap_arrays:
            try:
                fit = fit_weibull(np.concatenate(self._gap_arrays))
            except ValueError:
                fit = None
        shape_delta = scale_delta = float("nan")
        if fit is not None and self._prev_fit is not None:
            shape_delta = fit.shape - self._prev_fit.shape
            scale_delta = fit.scale - self._prev_fit.scale
        return StreamUpdate(
            index=self.increments - 1,
            watermark=self.watermark,
            wall_s=wall,
            events_raw=self._raw,
            after_temporal=self._after_temporal,
            after_spatial=self._after_spatial,
            pending_events=self._matcher.pending_events,
            events_flushed=self._matcher.events_flushed,
            pairs_emitted=self._matcher.pairs_emitted,
            interrupted_jobs=len(self._interrupted),
            interruption_rate_per_day=rate,
            fit=fit,
            shape_delta=shape_delta,
            scale_delta=scale_delta,
        )

    def _record_metrics(self, update: StreamUpdate) -> None:
        m = get_metrics()
        if math.isfinite(update.watermark):
            m.monotonic_gauge("stream.watermark").set(update.watermark)
        m.counter("stream.increments").inc()
        m.counter("stream.events.flushed").inc(
            update.events_flushed - (self._prev_flushed())
        )
        self._last_flushed = update.events_flushed
        m.gauge("stream.frontier.pending_events").set(update.pending_events)
        m.gauge("stream.frontier.jobs_buffered").set(
            self._matcher.jobs_buffered
        )
        m.gauge("stream.frontier.raw_buffered").set(self._matcher.raw_buffered)
        m.gauge("stream.frontier.causal_tail").set(
            len(self._causal._tail_times)
        )
        m.histogram("stream.increment.wall_s").observe(update.wall_s)

    def _prev_flushed(self) -> int:
        return getattr(self, "_last_flushed", 0)


def _merge_span(
    old: tuple[float, float] | None, new: tuple[float, float]
) -> tuple[float, float]:
    if old is None:
        return new
    return min(old[0], new[0]), max(old[1], new[1])


def replay_trace(
    ras_log: RasLog,
    job_log: JobLog,
    increments: int,
    pipeline: CoAnalysis | None = None,
    source: str = "stream",
) -> tuple[list[StreamUpdate], CoAnalysisResult]:
    """Replay a recorded trace through the streaming runner in K cuts."""
    from repro.stream.windows import split_trace

    runner = StreamingCoAnalysis(
        pipeline=pipeline if pipeline is not None else CoAnalysis(),
        source=source,
    )
    updates = [
        runner.ingest_increment(inc)
        for inc in split_trace(ras_log, job_log, increments=increments)
    ]
    return updates, runner.result()
