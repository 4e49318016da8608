"""Bounded-lateness watermarks in front of the strict streaming core.

:class:`StreamingCoAnalysis` demands perfectly ordered increments —
every key in ``[previous watermark, watermark)``, a record's key being
its table's time key (:data:`repro.logs.window.TIME_KEY`: RAS
``event_time``, job ``start_time``) — because its frontier
math is only bit-identical to batch under that contract. A live feed
breaks the contract constantly: records arrive minutes late, two feeds
drift against each other, a degraded poll stalls one side. Rather than
weaken the core, :class:`BoundedLatenessStream` keeps it strict and
puts a **reorder buffer** in front:

* arrivals are buffered, not ingested; the producer's watermark ``W``
  only says "I have now *seen* up to W";
* the inner stream runs at the **effective watermark**
  ``W_eff = W - allowed_lateness`` — every buffered record with key
  below ``W_eff`` is released, sorted by ``(key, id)``, and fed to the
  strict core, which therefore always sees in-order data;
* a record older than the horizon (key below the inner watermark, i.e.
  more than ``allowed_lateness`` behind the producer) can no longer be
  merged without rewriting released history — it is counted in
  ``stream.late_dropped`` and diverted to the
  :class:`LateRecordSink`, never crashed on.

Because the released prefix is exactly the sorted trace below
``W_eff``, the final :meth:`~BoundedLatenessStream.result` — which
flushes the remaining buffer — is **bit-identical to batch for any
arrival pattern whose lateness stays inside the horizon** (the
``tests/stream/test_lateness.py`` property). Records that do overflow
the horizon change the result exactly as if they were absent from the
batch input, which is the honest semantics of dropping.

The released frames are also surfaced per ingest
(:class:`LatenessUpdate`), in sorted order with nondecreasing keys
across calls — precisely the append contract
:meth:`repro.store.dataset.ShardedDataset.append_machine_window`
enforces, so the daemon can stream them straight into the fleet store.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.core.pipeline import CoAnalysis, CoAnalysisResult
from repro.frame import Frame, concat
from repro.logs.job import JOB_COLUMNS, JobLog, empty_job_log
from repro.logs.ras import RasLog, empty_ras_log
from repro.logs.textio import append_log_rows, ras_disk_frame
from repro.logs.window import TIME_KEY
from repro.obs.metrics import get_metrics
from repro.stream.runner import StreamError, StreamingCoAnalysis, StreamUpdate

__all__ = ["BoundedLatenessStream", "LateRecordSink", "LatenessUpdate"]

#: the id column that breaks key ties per table, so releases come out
#: in the fleet store's shard sort order
_TIE_BREAK = {"ras": "recid", "job": "job_id"}


class LateRecordSink:
    """Append-only quarantine for records beyond the lateness horizon.

    Late RAS and job records are appended to ``late_ras.psv`` /
    ``late_job.psv`` under *directory*, in the standard on-disk formats
    (:func:`repro.logs.textio.read_ras_log` reads them back), so an
    operator can audit what the horizon rejected and replay it offline.
    Appends are at-least-once: a crash between processing and the next
    checkpoint may re-append the same record on resume — dedup on
    recid/job_id when replaying.
    """

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.written = {"ras": 0, "job": 0}

    def path_for(self, table: str) -> Path:
        return self.directory / f"late_{table}.psv"

    def write(self, table: str, frame: Frame) -> None:
        if not frame.num_rows:
            return
        if table == "ras":
            rows = ras_disk_frame(frame)
        else:
            rows = frame.select(list(JOB_COLUMNS))
        append_log_rows(rows, self.path_for(table))
        self.written[table] += frame.num_rows


@dataclass(frozen=True)
class LatenessUpdate:
    """What one buffered ingest did: released, held, dropped."""

    #: the inner core's rolling update; None when nothing was released
    update: StreamUpdate | None
    #: the sorted released chunks (what the core — and the store — got)
    released_ras: RasLog
    released_job: JobLog
    #: inner watermark after the call (the released horizon)
    effective_watermark: float
    #: producer watermark after the call
    producer_watermark: float
    #: rows still buffered awaiting release
    buffered: int
    #: rows diverted to the late sink by this call, per table
    dropped: dict
    #: rows accepted by this call that were late but inside the horizon
    merged_late: dict


class BoundedLatenessStream:
    """A reorder buffer that upgrades the strict core to bounded lateness.

    ``allowed_lateness`` is the horizon in seconds: a record may trail
    the producer watermark by up to this much and still land in the
    final result bit-identically. ``0.0`` recovers the strict contract
    (any out-of-order record is dropped, never crashed on).
    """

    def __init__(
        self,
        pipeline: CoAnalysis | None = None,
        allowed_lateness: float = 0.0,
        sink: LateRecordSink | None = None,
        source: str = "stream",
    ):
        if allowed_lateness < 0:
            raise ValueError("allowed_lateness must be non-negative")
        self.inner = StreamingCoAnalysis(
            pipeline=pipeline if pipeline is not None else CoAnalysis(),
            source=source,
        )
        self.allowed_lateness = float(allowed_lateness)
        self.sink = sink
        self.producer_watermark = float("-inf")
        self.late_merged = {"ras": 0, "job": 0}
        self.late_dropped = {"ras": 0, "job": 0}
        self._buffers: dict[str, list[Frame]] = {"ras": [], "job": []}

    # ------------------------------------------------------------------

    @property
    def effective_watermark(self) -> float:
        return self.inner.watermark

    @property
    def buffered_rows(self) -> int:
        return sum(
            f.num_rows for frames in self._buffers.values() for f in frames
        )

    def ingest(
        self, ras: RasLog, job: JobLog, watermark: float
    ) -> LatenessUpdate:
        """Buffer one arrival batch and release what the horizon allows.

        *watermark* is the producer's claim "I have seen event time up
        to here" — it must not go backwards, but the records may be
        arbitrarily disordered. Records older than
        ``watermark - allowed_lateness`` relative to what was already
        released are sunk, everything else is buffered; the buffered
        prefix below the new effective watermark is released in sorted
        order to the strict core.
        """
        watermark = float(watermark)
        if not watermark >= self.producer_watermark:
            raise StreamError(
                f"producer watermark went backwards: {watermark} <"
                f" {self.producer_watermark}"
            )
        dropped = {"ras": 0, "job": 0}
        merged = {"ras": 0, "job": 0}
        self._absorb("ras", ras.frame, dropped, merged)
        self._absorb("job", job.frame, dropped, merged)
        self.producer_watermark = watermark

        w_eff = watermark - self.allowed_lateness
        released_ras, released_job, update = self._release(w_eff)
        self._record_metrics()
        return LatenessUpdate(
            update=update,
            released_ras=released_ras,
            released_job=released_job,
            effective_watermark=self.inner.watermark,
            producer_watermark=self.producer_watermark,
            buffered=self.buffered_rows,
            dropped=dropped,
            merged_late=merged,
        )

    def drain(self) -> tuple[RasLog, JobLog]:
        """Release everything still buffered (no more data is coming).

        Returns the released chunks — sorted, nondecreasing after all
        prior releases — so a caller streaming releases into the fleet
        store can append the tail too. Does not finalize the core.
        """
        tail_keys = [
            float(f[TIME_KEY[table]].max())
            for table, frames in self._buffers.items()
            for f in frames
            if f.num_rows
        ]
        if not tail_keys:
            return empty_ras_log(), empty_job_log()
        final = np.nextafter(max(tail_keys), np.inf)
        released_ras, released_job, _ = self._release(final)
        return released_ras, released_job

    def result(self) -> CoAnalysisResult:
        """Flush the remaining buffer and finalize the inner core."""
        self.drain()
        return self.inner.result()

    # ------------------------------------------------------------------

    def _absorb(
        self, table: str, frame: Frame, dropped: dict, merged: dict
    ) -> None:
        if not frame.num_rows:
            return
        key_col = TIME_KEY[table]
        times = frame[key_col]
        too_late = times < self.inner.watermark
        n_drop = int(too_late.sum())
        if n_drop:
            dropped[table] += n_drop
            self.late_dropped[table] += n_drop
            sunk = frame.filter(too_late)
            if self.sink is not None:
                self.sink.write(table, sunk)
            get_metrics().counter("stream.late_dropped", table=table).inc(
                n_drop
            )
            frame = frame.filter(~too_late)
            times = frame[key_col]
        if not frame.num_rows:
            return
        n_late = int((times < self.producer_watermark).sum())
        if n_late:
            merged[table] += n_late
            self.late_merged[table] += n_late
            get_metrics().counter("stream.late_merged", table=table).inc(
                n_late
            )
        self._buffers[table].append(frame)

    def _release(
        self, w_eff: float
    ) -> tuple[RasLog, JobLog, StreamUpdate | None]:
        """Feed the sorted buffered prefix below *w_eff* to the core."""
        if not w_eff > self.inner.watermark:
            return empty_ras_log(), empty_job_log(), None
        ras_frame = self._split_below("ras", w_eff)
        job_frame = self._split_below("job", w_eff)
        released_ras = (
            RasLog(ras_frame) if ras_frame.num_rows else empty_ras_log()
        )
        released_job = (
            JobLog(job_frame) if job_frame.num_rows else empty_job_log()
        )
        for table, frame in (("ras", ras_frame), ("job", job_frame)):
            if frame.num_rows:
                get_metrics().counter(
                    "stream.released_rows", table=table
                ).inc(frame.num_rows)
        update = self.inner.ingest(released_ras, released_job, w_eff)
        return released_ras, released_job, update

    def _split_below(self, table: str, w_eff: float) -> Frame:
        """Pop rows below *w_eff* from the buffer, sorted by (key, id)."""
        frames = self._buffers[table]
        if not frames:
            return Frame()
        merged = concat(frames) if len(frames) > 1 else frames[0]
        key_col, id_col = TIME_KEY[table], _TIE_BREAK[table]
        below = merged[key_col] < w_eff
        kept = merged.filter(~below)
        self._buffers[table] = [kept] if kept.num_rows else []
        out = merged.filter(below)
        if out.num_rows:
            out = out.take(np.lexsort((out[id_col], out[key_col])))
        return out

    def _record_metrics(self) -> None:
        m = get_metrics()
        m.gauge("stream.lateness.buffered").set(self.buffered_rows)
        if np.isfinite(self.producer_watermark):
            lag = self.producer_watermark - self.inner.watermark
            m.gauge("stream.lateness.horizon_lag_s").set(
                lag if np.isfinite(lag) else self.allowed_lateness
            )

    # -- durable state (carried by the daemon checkpoint) ---------------

    def buffer_frames(self) -> dict[str, Frame]:
        """The reorder buffer, one consolidated frame per table."""
        out = {}
        for table, frames in self._buffers.items():
            if frames:
                out[table] = (
                    concat(frames) if len(frames) > 1 else frames[0]
                )
            else:
                out[table] = Frame()
        return out

    def state_dict(self) -> dict:
        return {
            "allowed_lateness": self.allowed_lateness,
            "producer_watermark": self.producer_watermark,
            "late_merged": dict(self.late_merged),
            "late_dropped": dict(self.late_dropped),
        }

    def restore(self, payload: dict, buffers: dict[str, Frame]) -> None:
        self.allowed_lateness = float(payload["allowed_lateness"])
        self.producer_watermark = float(payload["producer_watermark"])
        self.late_merged = {
            k: int(v) for k, v in payload["late_merged"].items()
        }
        self.late_dropped = {
            k: int(v) for k, v in payload["late_dropped"].items()
        }
        self._buffers = {
            table: [frame] if frame.num_rows else []
            for table, frame in buffers.items()
        }
