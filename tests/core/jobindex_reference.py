"""Row-at-a-time references for the job × midplane index and its readers.

These are the loops :mod:`repro.core.jobindex` replaced: a
``parse_partition`` call per job row for the completed-run index, the
Figure 4 workload series and the §VI-D location feature, a per-row
``runtime_bucket_index`` for the runtime feature and the Table VI grid,
and a per-event slice increment for the event midplane counts. They
stay as the oracles the vectorized code is pinned against, bit for
bit. Do not optimize this module; its value is being obviously correct.
"""

from __future__ import annotations

import numpy as np

from repro.core.events import FatalEventTable
from repro.core.vulnerability import (
    CATEGORY_APPLICATION,
    CATEGORY_SYSTEM,
    SizeTimeGrid,
)
from repro.frame import Frame
from repro.logs.job import JobLog
from repro.machine.partition import parse_partition
from repro.machine.topology import NUM_MIDPLANES
from repro.stats.infogain import FeatureScore, rank_features
from repro.workload.tables import RUNTIME_BUCKETS, SIZE_CLASSES


def runtime_bucket_index_by_loop(runtime: float) -> int:
    """Bucket index for a runtime in seconds; clamps to the edges."""
    for i, (lo, hi) in enumerate(RUNTIME_BUCKETS):
        if runtime < hi:
            return i
    return len(RUNTIME_BUCKETS) - 1


class CompletedRunIndex:
    """Sorted (start, end) intervals of clean runs per midplane."""

    def __init__(self, job_log: JobLog, interrupted_job_ids: set):
        frame = job_log.frame
        interrupted = frame.mask_isin("job_id", list(interrupted_job_ids))
        clean = frame.filter(~interrupted)
        per_mp_starts: list[list[float]] = [[] for _ in range(NUM_MIDPLANES)]
        per_mp_ends: list[list[float]] = [[] for _ in range(NUM_MIDPLANES)]
        for loc, start, end in zip(
            clean["location"], clean["start_time"], clean["end_time"]
        ):
            partition = parse_partition(loc)
            for mp in partition.midplane_indices:
                per_mp_starts[mp].append(start)
                per_mp_ends[mp].append(end)
        self._starts: list[np.ndarray] = []
        self._ends: list[np.ndarray] = []
        for mp in range(NUM_MIDPLANES):
            order = np.argsort(np.asarray(per_mp_starts[mp]))
            self._starts.append(np.asarray(per_mp_starts[mp])[order])
            self._ends.append(np.asarray(per_mp_ends[mp])[order])

    def any_between(self, midplane: int, t1: float, t2: float) -> bool:
        """Did any clean run both start and finish inside (t1, t2)?"""
        starts = self._starts[midplane]
        ends = self._ends[midplane]
        lo = np.searchsorted(starts, t1, side="right")
        hi = np.searchsorted(starts, t2, side="left")
        if lo >= hi:
            return False
        return bool((ends[lo:hi] <= t2).any())

    def any_overlapping(self, midplane: int, t1: float, t2: float) -> bool:
        """Was any clean run active on the midplane during (t1, t2)?"""
        starts = self._starts[midplane]
        ends = self._ends[midplane]
        hi = np.searchsorted(starts, t2, side="left")
        if hi == 0:
            return False
        return bool((ends[:hi] > t1).any())


def index_by_row(jobs: Frame) -> dict[str, np.ndarray]:
    """What :class:`repro.core.jobindex.JobMidplaneIndex` holds, built
    one job row and one midplane at a time.

    Per midplane, its jobs' rows are listed in row order and then
    stably sorted by end time (and, separately, by start time); the
    prefix max of end times is a running ``max``.
    """
    part_start, mp_counts = [], []
    per_mp: list[list[int]] = [[] for _ in range(NUM_MIDPLANES)]
    for row, loc in enumerate(jobs["location"]):
        partition = parse_partition(loc)
        part_start.append(partition.start)
        mp_counts.append(partition.size)
        for mp in partition.midplane_indices:
            per_mp[mp].append(row)
    starts, ends = jobs["start_time"], jobs["end_time"]
    rows_by_end: list[int] = []
    rows_by_start: list[int] = []
    cummax: list[float] = []
    seg = [0]
    for rows in per_mp:
        rows_by_end.extend(sorted(rows, key=lambda r: ends[r]))
        by_start = sorted(rows, key=lambda r: starts[r])
        rows_by_start.extend(by_start)
        running = -np.inf
        for r in by_start:
            running = max(running, ends[r])
            cummax.append(running)
        seg.append(seg[-1] + len(rows))
    rows_by_end = np.array(rows_by_end, dtype=np.int64)
    rows_by_start = np.array(rows_by_start, dtype=np.int64)
    return {
        "part_start": np.array(part_start, dtype=np.int64),
        "mp_counts": np.array(mp_counts, dtype=np.int64),
        "seg": np.array(seg, dtype=np.int64),
        "rows_by_end": rows_by_end,
        "ends_by_end": ends[rows_by_end],
        "starts_by_start": starts[rows_by_start],
        "ends_by_start": ends[rows_by_start],
        "run_end_cummax": np.array(cummax, dtype=np.float64),
    }


def midplane_counts_by_row(
    events: FatalEventTable, num_midplanes: int = 80
) -> np.ndarray:
    """Events per midplane (rack-level events count on both)."""
    counts = np.zeros(num_midplanes, dtype=np.int64)
    lo = events.frame["mp_lo"]
    hi = events.frame["mp_hi"]
    for a, b in zip(lo, hi):
        counts[a : b + 1] += 1
    return counts


def midplane_profile_by_row(
    events: FatalEventTable,
    job_log: JobLog,
    wide_threshold: int = 32,
) -> Frame:
    """Figure 4's three per-midplane series."""
    fatal = midplane_counts_by_row(events, NUM_MIDPLANES)
    workload = np.zeros(NUM_MIDPLANES)
    wide = np.zeros(NUM_MIDPLANES)
    frame = job_log.frame
    runtimes = frame["end_time"] - frame["start_time"]
    for loc, rt, size in zip(
        frame["location"], runtimes, frame["size_midplanes"]
    ):
        partition = parse_partition(loc)
        sl = slice(partition.start, partition.start + partition.size)
        workload[sl] += rt
        if size >= wide_threshold:
            wide[sl] += rt
    return Frame(
        {
            "midplane": np.arange(NUM_MIDPLANES, dtype=np.int64),
            "fatal_events": fatal,
            "workload": workload,
            "wide_workload": wide,
        }
    )


def size_time_grid_by_row(
    jobs: Frame, cat_by_job: dict[int, int]
) -> SizeTimeGrid:
    """Table VI: category-1 interruptions over all jobs excluding
    category-2 ones, bucketed by recorded runtime."""
    n_sizes, n_buckets = len(SIZE_CLASSES), len(RUNTIME_BUCKETS)
    interrupted = np.zeros((n_sizes, n_buckets), dtype=np.int64)
    totals = np.zeros((n_sizes, n_buckets), dtype=np.int64)
    size_index = {s: i for i, s in enumerate(SIZE_CLASSES)}
    runtimes = jobs["end_time"] - jobs["start_time"]
    for jid, size, rt in zip(jobs["job_id"], jobs["size_midplanes"], runtimes):
        cat = cat_by_job.get(int(jid), 0)
        if cat == CATEGORY_APPLICATION:
            continue
        si = size_index.get(int(size))
        if si is None:
            continue
        bi = runtime_bucket_index_by_loop(float(rt))
        totals[si, bi] += 1
        if cat == CATEGORY_SYSTEM:
            interrupted[si, bi] += 1
    return SizeTimeGrid(interrupted=interrupted, totals=totals)


def rank_by_row(
    jobs: Frame,
    cat_by_job: dict[int, int],
    category: int,
    susp_users: list[str],
    susp_projects: list[str],
    unreliable: list[int],
) -> list[FeatureScore]:
    """The §VI-D feature ranking for one interruption category."""
    n = jobs.num_rows
    labels = np.fromiter(
        (cat_by_job.get(int(j), 0) == category for j in jobs["job_id"]),
        count=n,
        dtype=np.int64,
    )
    susp_u, susp_p = set(susp_users), set(susp_projects)
    unreliable_set = set(unreliable)
    runtimes = jobs["end_time"] - jobs["start_time"]
    loc_flags = np.zeros(n, dtype=np.int64)
    for i, loc in enumerate(jobs["location"]):
        partition = parse_partition(loc)
        if any(mp in unreliable_set for mp in partition.midplane_indices):
            loc_flags[i] = 1
    features = {
        "user": np.fromiter(
            (u in susp_u for u in jobs["user"]), count=n, dtype=np.int64
        ),
        "project": np.fromiter(
            (p in susp_p for p in jobs["project"]), count=n, dtype=np.int64
        ),
        "execution_time": np.fromiter(
            (runtime_bucket_index_by_loop(float(r)) for r in runtimes),
            count=n,
            dtype=np.int64,
        ),
        "size": jobs["size_midplanes"],
        "location": loc_flags,
    }
    return rank_features(labels, features)
