"""Incremental interval-join matching with an open-window frontier.

The batch matcher's outputs are **per-event local**: an event's pairs,
its smallest matching midplanes and its case label depend only on jobs
and raw records within ``tolerance`` of the event — never on other
events. The streaming matcher exploits that: an event is *final* once
the watermark guarantees everything it could match has arrived
(``t < W - tolerance``, since a matching job ends by ``t + tolerance``
and job arrival is keyed by start time, ``start <= end``). Final events
flush through the unchanged kernel stages of
:mod:`repro.core.matching` against a frontier buffer of recent jobs and
raw records; everything older than ``W - 2*tolerance`` can no longer be
reached by any pending or future event and is pruned.

Bit-identity with the batch matcher follows from order preservation:
the frontier buffers are subsequences of the full job/raw frames, and
the kernel's lexsorts only compare *relative* row positions, so the
flush-local pair ordering concatenates to exactly the batch ordering.

The matcher runs over the causality filter's **input** (spatial
survivors) because causal rules are mined globally and an event's fate
is unknown until the stream ends; :meth:`StreamMatcher.result` restricts
the accumulated pairs and cases to the event ids of the final causal
survivors and recomputes the per-job earliest interruption — cheap, and
exactly what the batch matcher would have produced over the survivor
set.
"""

from __future__ import annotations

import numpy as np

from repro.core.events import FatalEventTable
from repro.core.matching import (
    INTERRUPTION_DTYPES,
    MatchResult,
    _assemble_pairs,
    _first_event_per_job,
    _match_kernel,
    _type_case_table,
)
from repro.frame import Frame, concat
from repro.logs.job import empty_job_log

__all__ = ["StreamMatcher"]


def _empty_pairs() -> Frame:
    return Frame(
        {
            name: np.array([], dtype=dtype)
            for name, dtype in INTERRUPTION_DTYPES.items()
        }
    )


class StreamMatcher:
    """Accumulates (event, job) pairs as the watermark advances.

    Feed :meth:`ingest` one increment at a time (spatial-survivor
    events, the increment's jobs, its post-temporal raw records and the
    new watermark); call :meth:`finalize` after the last increment and
    then :meth:`result` with the causal survivors.
    """

    def __init__(self, tolerance: float):
        if tolerance < 0:
            raise ValueError(
                f"tolerance must be non-negative, got {tolerance}"
            )
        self.tolerance = float(tolerance)
        #: pending spatial-survivor events, globally time-ordered
        self._pending: list[Frame] = []
        #: frontier: jobs still reachable by a pending or future event
        self._jobs: list[Frame] = []
        #: frontier: post-temporal raw records, same reachability bound
        self._raw: list[Frame] = []
        #: accumulated flush products, in global event order
        self._pair_frames: list[Frame] = []
        self._case: list[np.ndarray] = []
        self._event_ids: list[np.ndarray] = []
        self._finalized = False
        self.events_flushed = 0
        self.pairs_emitted = 0

    # ------------------------------------------------------------------

    @property
    def pending_events(self) -> int:
        return sum(f.num_rows for f in self._pending)

    @property
    def jobs_buffered(self) -> int:
        return sum(f.num_rows for f in self._jobs)

    @property
    def raw_buffered(self) -> int:
        return sum(f.num_rows for f in self._raw)

    def ingest(
        self,
        survivors: Frame,
        jobs: Frame,
        raw: Frame,
        watermark: float,
    ) -> int:
        """Fold one increment in; returns the number of events flushed."""
        if self._finalized:
            raise RuntimeError("matcher already finalized")
        if survivors.num_rows:
            self._pending.append(survivors)
        if jobs.num_rows:
            self._jobs.append(jobs)
        if raw.num_rows:
            self._raw.append(raw)
        flushed = self._flush(watermark - self.tolerance)
        self._prune(watermark - 2 * self.tolerance)
        return flushed

    def finalize(self) -> None:
        """Flush every pending event — the stream has ended."""
        if not self._finalized:
            self._flush(np.inf)
            self._finalized = True

    # ------------------------------------------------------------------

    def _flush(self, final_before: float) -> int:
        """Match pending events with ``time < final_before``."""
        if not self._pending:
            return 0
        pend = self._pending[0] if len(self._pending) == 1 else concat(
            self._pending
        )
        count = int(
            np.searchsorted(pend["event_time"], final_before, side="left")
        )
        if count == 0:
            self._pending = [pend]
            return 0
        ev = pend.head(count)
        rest = pend.take(np.arange(count, pend.num_rows))
        self._pending = [rest] if rest.num_rows else []

        jobs = concat(self._jobs) if self._jobs else empty_job_log().frame
        self._jobs = [jobs] if jobs.num_rows else []
        raw = concat(self._raw) if self._raw else None
        if raw is not None:
            self._raw = [raw]

        m_ev, m_row, m_mp, case = _match_kernel(
            ev,
            jobs,
            FatalEventTable(raw) if raw is not None else None,
            self.tolerance,
        )
        pairs = _assemble_pairs(ev, jobs, m_ev, m_row, m_mp)
        if pairs.num_rows:
            self._pair_frames.append(pairs)
        self._case.append(case)
        self._event_ids.append(ev["event_id"])
        self.events_flushed += count
        self.pairs_emitted += pairs.num_rows
        return count

    def _prune(self, horizon: float) -> None:
        """Drop frontier rows no pending or future event can reach.

        Pending and future events have ``t >= W - tolerance``, so
        anything with its reachability key below ``W - 2*tolerance``
        (job end time, raw event time) is out of every window that can
        still open. Boolean filters preserve relative row order — the
        property the flush-order equivalence rests on.
        """
        if self._jobs:
            jobs = concat(self._jobs) if len(self._jobs) > 1 else self._jobs[0]
            kept = jobs.filter(jobs["end_time"] >= horizon)
            self._jobs = [kept] if kept.num_rows else []
        if self._raw:
            raw = concat(self._raw) if len(self._raw) > 1 else self._raw[0]
            kept = raw.filter(raw["event_time"] >= horizon)
            self._raw = [kept] if kept.num_rows else []

    # ------------------------------------------------------------------

    def result(self, events: FatalEventTable) -> MatchResult:
        """The batch-identical :class:`MatchResult` over causal survivors.

        *events* is the causality filter's output over every spatial
        survivor :meth:`ingest` was fed, in the same (time) order.
        """
        if not self._finalized:
            raise RuntimeError("finalize() the matcher before result()")
        ev = events.frame
        surviving_ids = ev["event_id"]
        if self.events_flushed:
            event_ids = np.concatenate(self._event_ids)
            case = np.concatenate(self._case)
        else:
            event_ids = np.zeros(0, dtype=np.int64)
            case = np.zeros(0, dtype=np.int64)
        keep = np.isin(event_ids, surviving_ids)
        if not np.array_equal(event_ids[keep], surviving_ids):
            raise ValueError(
                f"{len(surviving_ids)} surviving events are not an ordered"
                f" subset of the {self.events_flushed} matched"
            )
        pairs = (
            concat(self._pair_frames) if self._pair_frames else _empty_pairs()
        )
        if pairs.num_rows:
            pairs = pairs.filter(np.isin(pairs["event_id"], surviving_ids))
        return MatchResult(
            pairs=pairs,
            interruptions=_first_event_per_job(pairs),
            event_cases=dict(
                zip(surviving_ids.tolist(), case[keep].tolist())
            ),
            type_cases=_type_case_table(ev, case[keep]),
        )
