"""One job × midplane index: which midplanes each job held, and when.

The matcher (§IV), the clean-run checks of the classifier (Figure 2)
and the job-related filter (§IV-C), Figure 4's per-midplane workload
and the §VI-D location feature all ask the same question of the job
log. It is answered once here:

* :func:`midplane_spans` resolves a location column to each row's
  first midplane and midplane count, parsing each distinct string once
  (the fatal-event table reads its event locations through it too);
* :func:`expand_spans` broadcasts the spans into (row, midplane)
  pairs, the expansion every per-midplane series and join starts from;
* :class:`JobMidplaneIndex` sorts that expansion per midplane by end
  time (for the matcher's windows) and by start time with a prefix-max
  of end times (for "was a job running?" probes).
"""

from __future__ import annotations

from typing import Callable, Iterable

import numpy as np

from repro.frame import Frame
from repro.frame.column import segmented_arange
from repro.logs.job import JobLog
from repro.machine.partition import parse_partition
from repro.machine.topology import NUM_MIDPLANES


def _partition_span(text: str) -> tuple[int, int]:
    partition = parse_partition(text)
    return partition.start, partition.size


def midplane_spans(
    values: np.ndarray,
    span_of: Callable[[str], tuple[int, int]] = _partition_span,
) -> tuple[np.ndarray, np.ndarray]:
    """Per row: the first midplane and the midplane count of its value.

    *span_of* maps one location string to ``(first, count)``; the
    default reads a job-log partition name. Each distinct string is
    parsed once, in order of first appearance, so a malformed value
    raises the ``ValueError`` of the first bad row in row order.
    """
    table: dict[str, int] = {}
    inv = np.fromiter(
        (table.setdefault(v, len(table)) for v in values),
        dtype=np.int64,
        count=len(values),
    )
    spans = np.array(
        [span_of(v) for v in table], dtype=np.int64
    ).reshape(-1, 2)
    return spans[inv, 0], spans[inv, 1]


def expand_spans(
    first: np.ndarray, count: np.ndarray, order: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """``(rows, midplanes)``: each row repeated once per midplane of
    its span, rows taken in *order* (row order by default) and each
    span's midplanes ascending."""
    if order is None:
        order = np.arange(len(first), dtype=np.int64)
    cnt = count[order]
    rows = np.repeat(order, cnt)
    return rows, np.repeat(first[order], cnt) + segmented_arange(cnt)


class JobMidplaneIndex:
    """Columnar (job × midplane) expansion with per-midplane sort orders.

    ``seg[mp]:seg[mp+1]`` slices one midplane's entries, both in the
    end-time-sorted expansion (``rows_by_end``, ``ends_by_end``) and in
    the start-time-sorted one (``starts_by_start``, ``ends_by_start``,
    ``run_end_cummax``).
    """

    def __init__(self, jobs: Frame):
        starts = jobs["start_time"]
        ends = jobs["end_time"]
        #: per job row: first midplane and midplane count of its partition
        self.part_start, self.mp_counts = midplane_spans(jobs["location"])

        self.global_order = np.argsort(ends, kind="stable")
        self.global_ends = ends[self.global_order]

        # Expanding *pre-sorted* jobs and then stable-sorting the cheap
        # int midplane column yields per-midplane segments already
        # ordered by the time key — no float lexsort over the expansion.
        self.rows_by_end, mps = self._expand_sorted(self.global_order)
        self.ends_by_end = ends[self.rows_by_end]
        per_mp = np.bincount(mps, minlength=NUM_MIDPLANES)
        self.seg = np.concatenate([[0], np.cumsum(per_mp)]).astype(np.int64)

        rows_by_start, _ = self._expand_sorted(
            np.argsort(starts, kind="stable")
        )
        self.starts_by_start = starts[rows_by_start]
        self.ends_by_start = ends[rows_by_start]
        # prefix max of end times in start order, reset per midplane:
        # "running at t" ⇔ some start ≤ t with prefix-max end > t.
        self.run_end_cummax = self.ends_by_start.copy()
        for mp in range(NUM_MIDPLANES):
            s0, s1 = self.seg[mp], self.seg[mp + 1]
            if s1 > s0:
                np.maximum.accumulate(
                    self.run_end_cummax[s0:s1], out=self.run_end_cummax[s0:s1]
                )

    @classmethod
    def completed_runs(
        cls, job_log: JobLog, interrupted_job_ids: Iterable[int]
    ) -> "JobMidplaneIndex":
        """The index over the clean runs: every job no event interrupted."""
        frame = job_log.frame
        interrupted = frame.mask_isin("job_id", list(interrupted_job_ids))
        return cls(frame.filter(~interrupted))

    def _expand_sorted(
        self, order: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(rows, midplanes)`` of the expansion grouped by midplane,
        the ordering of *order* preserved inside each midplane segment."""
        rows, mps = expand_spans(self.part_start, self.mp_counts, order)
        # midplane ids fit uint8; the radix sort then needs one pass
        by_mp = np.argsort(mps.astype(np.uint8), kind="stable")
        return rows[by_mp], mps[by_mp]

    def any_between(self, midplane: int, t1: float, t2: float) -> bool:
        """Did any indexed run both start and finish inside (t1, t2)?"""
        s0, s1 = self.seg[midplane], self.seg[midplane + 1]
        starts = self.starts_by_start[s0:s1]
        lo = s0 + np.searchsorted(starts, t1, side="right")
        hi = s0 + np.searchsorted(starts, t2, side="left")
        return bool(lo < hi and (self.ends_by_start[lo:hi] <= t2).any())

    def any_overlapping(self, midplane: int, t1: float, t2: float) -> bool:
        """Was any indexed run active on the midplane during (t1, t2)?

        The Figure 2 condition: a job occupying the suspect's old
        location during the window, unharmed.
        """
        s0, s1 = self.seg[midplane], self.seg[midplane + 1]
        h = np.searchsorted(self.starts_by_start[s0:s1], t2, side="left")
        return bool(h > 0 and self.run_end_cummax[s0 + h - 1] > t1)
