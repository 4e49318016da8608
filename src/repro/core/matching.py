"""Matching fatal events to job terminations (§IV, Figure 1 center).

Both logs carry time and location: a job whose *End Time* falls within
``tolerance`` of a fatal event whose LOCATION lies inside the job's
partition is taken as interrupted by that event. Events matching no
job termination are split into case 2 (no job was running at the
location) and case 3 (jobs were running but none died) — the raw
material for the §IV-A identification rules.

This module holds the **vectorized interval-join kernel**: each event is
broadcast across its midplane span into an (event, midplane) table, and
``np.searchsorted`` windows over per-midplane end-time arrays produce
all (event, job) pairs in bulk; pairs are assembled column-wise with
``take``. The row-at-a-time original is kept with the tests
(``tests/core/matching_reference.py``) and golden-tested for equivalence.
Each kernel stage is a ``match.*`` span (:func:`repro.obs.maybe_span`)
carrying its wall time and row count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.events import FatalEventTable
from repro.frame import Frame
from repro.frame.column import (
    factorize,
    first_occurrence_mask,
    segmented_arange as _segmented_arange,
)
from repro.logs.job import JobLog
from repro.machine.partition import parse_partition
from repro.machine.topology import NUM_MIDPLANES
from repro.obs.trace import maybe_span

#: per-event outcome labels
CASE_INTERRUPTS = 1       # matched at least one job termination
CASE_IDLE = 2             # no job at the location
CASE_RUNNING_UNHARMED = 3 # jobs running at the location, none died

#: the paper's matching tolerance (§IV): a job end within 60 s of a
#: fatal event at its location counts as interrupted by it.
DEFAULT_TOLERANCE = 60.0

#: columns of the interruption pair frame
INTERRUPTION_COLUMNS = (
    "event_id",
    "job_id",
    "event_time",
    "errcode",
    "executable",
    "user",
    "project",
    "size_midplanes",
    "job_location",
    "mp",
    "job_start",
    "job_end",
)

#: dtypes of the interruption pair frame (empty frames keep these too)
INTERRUPTION_DTYPES = {
    "event_id": np.int64,
    "job_id": np.int64,
    "event_time": np.float64,
    "errcode": object,
    "executable": object,
    "user": object,
    "project": object,
    "size_midplanes": np.int64,
    "job_location": object,
    "mp": np.int64,
    "job_start": np.float64,
    "job_end": np.float64,
}


@dataclass
class MatchResult:
    """Everything the matcher learned."""

    #: all (event, job) interruption pairs
    pairs: Frame
    #: one row per interrupted job: its earliest matching event
    interruptions: Frame
    #: per event_id: CASE_* outcome
    event_cases: dict[int, int]
    #: per errcode: counts of events in each case
    type_cases: Frame

    @property
    def num_interrupted_jobs(self) -> int:
        return self.interruptions.num_rows

    def interrupted_job_ids(self) -> np.ndarray:
        return self.interruptions["job_id"]

    def case_share(self, case: int) -> float:
        """Fraction of filtered events with the given CASE_* outcome."""
        if not self.event_cases:
            return 0.0
        values = np.fromiter(self.event_cases.values(), dtype=np.int64)
        return float((values == case).mean())


@dataclass
class InterruptionMatcher:
    """Time+location join between fatal events and job terminations.

    When *raw_events* (the post-temporal-filter record table) is
    supplied, a filtered event is also credited with job terminations at
    *other* locations, provided the raw stream shows the same ERRCODE at
    that job's location within the tolerance — this is how one shared-
    file-system fault is seen interrupting several concurrent jobs
    (§VI-C) even though filtering kept a single representative record.

    The kernel is fully columnar:

    1. *index* — every job is broadcast across the midplanes of its
       partition (locations parsed once per unique string); one lexsort
       yields, per midplane, job rows sorted by end time (for the join)
       and by start time with a prefix-max of end times (for O(1)
       "anything running at t?" probes).
    2. *join* — every event is broadcast across its midplane span;
       per-midplane ``searchsorted`` windows over the end-time arrays
       expand into candidate (event, job, midplane) triples, which are
       deduplicated to one pair per (event, job) keeping the smallest
       matching midplane.
    3. *raw_credit* — matched events gain cross-location jobs whose
       partitions saw the same ERRCODE in the raw stream.
    4. *cases/assemble* — per-event case labels via bincount, pair frame
       assembled column-wise with ``take`` (no row dicts).
    """

    tolerance: float = DEFAULT_TOLERANCE

    def match(
        self,
        events: FatalEventTable,
        job_log: JobLog,
        raw_events: FatalEventTable | None = None,
    ) -> MatchResult:
        ev = events.frame
        jobs = job_log.frame
        tol = float(self.tolerance)
        if tol < 0:
            raise ValueError(f"tolerance must be non-negative, got {tol}")

        with maybe_span("match.index") as sp:
            index = _JobMidplaneIndex(jobs)
            raw_index = (
                _RawTypeIndex(raw_events) if raw_events is not None else None
            )
            sp.rows = jobs.num_rows

        with maybe_span("match.join") as sp:
            m_ev, m_row, m_mp, running_any = _direct_join(ev, index, tol)
            sp.rows = len(m_ev)

        if raw_index is not None and len(m_ev):
            with maybe_span("match.raw_credit") as sp:
                c_ev, c_row, c_mp = _cross_location_credit(
                    ev, index, raw_index, m_ev, m_row, tol
                )
                sp.rows = len(c_ev)
            if len(c_ev):
                m_ev = np.concatenate([m_ev, c_ev])
                m_row = np.concatenate([m_row, c_row])
                m_mp = np.concatenate([m_mp, c_mp])
                order = np.lexsort((m_row, m_ev))
                m_ev, m_row, m_mp = m_ev[order], m_row[order], m_mp[order]

        with maybe_span("match.cases") as sp:
            n_ev = ev.num_rows
            case = np.full(n_ev, CASE_IDLE, dtype=np.int64)
            case[running_any] = CASE_RUNNING_UNHARMED
            matched = np.zeros(n_ev, dtype=bool)
            matched[m_ev] = True
            case[matched] = CASE_INTERRUPTS
            event_cases = dict(
                zip(ev["event_id"].tolist(), case.tolist())
            )
            type_cases = _type_case_table(ev, case)
            sp.rows = n_ev

        with maybe_span("match.assemble") as sp:
            pairs = _assemble_pairs(ev, jobs, m_ev, m_row, m_mp)
            interruptions = _first_event_per_job(pairs)
            sp.rows = pairs.num_rows

        from repro.obs.metrics import get_metrics

        registry = get_metrics()
        registry.counter("kernel.match.candidates").inc(int(len(m_ev)))
        registry.counter("kernel.match.emitted").inc(int(pairs.num_rows))

        return MatchResult(
            pairs=pairs,
            interruptions=interruptions,
            event_cases=event_cases,
            type_cases=type_cases,
        )


# ----------------------------------------------------------------------
# kernel stages


class _JobMidplaneIndex:
    """Columnar (job × midplane) expansion with per-midplane sort orders.

    Each job row is repeated once per midplane of its partition (parsed
    once per *unique* location string, then broadcast by inverse codes).
    ``end_seg[mp]:end_seg[mp+1]`` slices the end-time-sorted expansion
    for one midplane; the same boundaries hold for the start-time order.
    """

    def __init__(self, jobs: Frame):
        n = jobs.num_rows
        starts = jobs["start_time"]
        ends = jobs["end_time"]
        # dict-based factorize: ~5x cheaper than np.unique's comparison
        # sort on object strings, and group order does not matter here
        table: dict[str, int] = {}
        inv = np.fromiter(
            (table.setdefault(s, len(table)) for s in jobs["location"]),
            dtype=np.int64,
            count=n,
        )
        parts = [parse_partition(u) for u in table]
        part_start_u = np.array([p.start for p in parts], dtype=np.int64)
        part_size_u = np.array([p.size for p in parts], dtype=np.int64)
        #: per job row: first midplane and midplane count of its partition
        self.part_start = (
            part_start_u[inv] if n else np.zeros(0, dtype=np.int64)
        )
        self.mp_counts = part_size_u[inv] if n else np.zeros(0, dtype=np.int64)

        self.global_order = (
            np.argsort(ends, kind="stable") if n else np.zeros(0, np.int64)
        )
        self.global_ends = (
            ends[self.global_order] if n else np.zeros(0, np.float64)
        )

        # Expanding *pre-sorted* jobs and then stable-sorting the cheap
        # int midplane column yields per-midplane segments already
        # ordered by the time key — no float lexsort over the expansion.
        self.rows_by_end = self._expand_sorted(self.global_order)
        self.ends_by_end = ends[self.rows_by_end]
        mps_e = np.repeat(self.part_start, self.mp_counts)
        self.end_seg = np.bincount(
            mps_e + _segmented_arange(self.mp_counts),
            minlength=NUM_MIDPLANES,
        )
        self.end_seg = np.concatenate(
            [[0], np.cumsum(self.end_seg)]
        ).astype(np.int64)

        start_order = (
            np.argsort(starts, kind="stable") if n else np.zeros(0, np.int64)
        )
        rows_by_start = self._expand_sorted(start_order)
        self.starts_by_start = starts[rows_by_start]
        # prefix max of end times in start order, reset per midplane:
        # "running at t" ⇔ some start ≤ t with prefix-max end > t.
        self.run_end_cummax = ends[rows_by_start]
        for mp in range(NUM_MIDPLANES):
            s0, s1 = self.end_seg[mp], self.end_seg[mp + 1]
            if s1 > s0:
                np.maximum.accumulate(
                    self.run_end_cummax[s0:s1], out=self.run_end_cummax[s0:s1]
                )

    def _expand_sorted(self, order: np.ndarray) -> np.ndarray:
        """Job rows repeated per midplane, grouped by midplane with the
        ordering of *order* preserved inside each midplane segment."""
        cnt = self.mp_counts[order]
        rows = np.repeat(order, cnt)
        mps = np.repeat(self.part_start[order], cnt) + _segmented_arange(cnt)
        # midplane ids fit uint8; the radix sort then needs one pass
        return rows[np.argsort(mps.astype(np.uint8), kind="stable")]


def _direct_join(
    ev: Frame, index: _JobMidplaneIndex, tol: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """All (event, job) matches on the events' own midplane spans.

    Returns ``(event_idx, job_row, midplane, running_any)`` with one
    entry per distinct (event, job) pair — smallest matching midplane
    kept — sorted by (event_idx, job_row), plus a per-event bool of
    whether any job was running on any midplane of the span.
    """
    n_ev = ev.num_rows
    t = ev["event_time"]
    lo_mp = ev["mp_lo"]
    span = (ev["mp_hi"] - lo_mp + 1).astype(np.int64)

    pe = np.repeat(np.arange(n_ev, dtype=np.int64), span)
    pm = np.repeat(lo_mp, span) + _segmented_arange(span)
    pt = t[pe]

    lo_idx = np.zeros(len(pe), dtype=np.int64)
    hi_idx = np.zeros(len(pe), dtype=np.int64)
    running = np.zeros(len(pe), dtype=bool)
    by_mp = np.argsort(pm.astype(np.uint8), kind="stable")
    bounds = np.searchsorted(pm[by_mp], np.arange(NUM_MIDPLANES + 1))
    for mp in range(NUM_MIDPLANES):
        sel = by_mp[bounds[mp] : bounds[mp + 1]]
        if not len(sel):
            continue
        ts = pt[sel]
        s0, s1 = index.end_seg[mp], index.end_seg[mp + 1]
        seg_ends = index.ends_by_end[s0:s1]
        lo_idx[sel] = s0 + np.searchsorted(seg_ends, ts - tol, side="left")
        hi_idx[sel] = s0 + np.searchsorted(seg_ends, ts + tol, side="right")
        h = np.searchsorted(index.starts_by_start[s0:s1], ts, side="right")
        nz = h > 0
        if nz.any():
            run = np.zeros(len(sel), dtype=bool)
            run[nz] = index.run_end_cummax[s0 + h[nz] - 1] > ts[nz]
            running[sel] = run

    running_any = np.bincount(pe[running], minlength=n_ev) > 0

    counts = hi_idx - lo_idx
    rep_ev = np.repeat(pe, counts)
    rep_mp = np.repeat(pm, counts)
    pos = np.repeat(lo_idx, counts) + _segmented_arange(counts)
    rows = index.rows_by_end[pos]

    # one pair per (event, job), smallest matching midplane first
    order = np.lexsort((rep_mp, rows, rep_ev))
    ev_s, row_s, mp_s = rep_ev[order], rows[order], rep_mp[order]
    first = np.ones(len(ev_s), dtype=bool)
    first[1:] = (ev_s[1:] != ev_s[:-1]) | (row_s[1:] != row_s[:-1])
    return ev_s[first], row_s[first], mp_s[first], running_any


def _cross_location_credit(
    ev: Frame,
    index: _JobMidplaneIndex,
    raw_index: "_RawTypeIndex",
    m_ev: np.ndarray,
    m_row: np.ndarray,
    tol: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cross-location matches for already-matched events (§VI-C).

    Candidate jobs are everything ending within tolerance anywhere on
    the machine; a candidate is credited when the raw record stream
    shows the event's ERRCODE inside the job's partition within the
    tolerance. Records the smallest such partition midplane.
    """
    me = np.unique(m_ev)
    t = ev["event_time"][me]
    glo = np.searchsorted(index.global_ends, t - tol, side="left")
    ghi = np.searchsorted(index.global_ends, t + tol, side="right")
    counts = ghi - glo
    qpos = np.repeat(np.arange(len(me), dtype=np.int64), counts)
    cev = me[qpos]
    pos = np.repeat(glo, counts) + _segmented_arange(counts)
    crow = index.global_order[pos]

    # drop pairs already matched on the event's own span (sorted
    # membership probe; m_ev/m_row arrive sorted so no extra sort)
    n_jobs = len(index.part_start)
    m_keys = m_ev * n_jobs + m_row
    c_keys = cev * n_jobs + crow
    at = np.searchsorted(m_keys, c_keys)
    at_c = np.minimum(at, len(m_keys) - 1)
    fresh = (at >= len(m_keys)) | (m_keys[at_c] != c_keys)
    cev, crow, qpos = cev[fresh], crow[fresh], qpos[fresh]
    empty = np.zeros(0, dtype=np.int64)
    if not len(cev):
        return empty, empty, empty

    # where was each matched event's type sighted? — one composite key
    # (event position, midplane) per sighting, sorted; a candidate is
    # credited iff a key falls inside its partition's midplane range,
    # and the lower bound is exactly the smallest such midplane
    codes = raw_index.codes_for(ev["errcode"][me])
    hit_keys = raw_index.sighting_keys(codes, t, tol)
    if not len(hit_keys):
        return empty, empty, empty

    qkey = qpos * NUM_MIDPLANES + index.part_start[crow]
    idx = np.searchsorted(hit_keys, qkey, side="left")
    at = np.minimum(idx, len(hit_keys) - 1)
    found = hit_keys[at]
    # found >= qkey; staying under qkey + size also pins the event,
    # because partitions never cross the NUM_MIDPLANES boundary
    ok = (idx < len(hit_keys)) & (found < qkey + index.mp_counts[crow])
    sel = np.flatnonzero(ok)
    return cev[sel], crow[sel], found[sel] % NUM_MIDPLANES


def _assemble_pairs(
    ev: Frame,
    jobs: Frame,
    m_ev: np.ndarray,
    m_row: np.ndarray,
    m_mp: np.ndarray,
) -> Frame:
    """Column-wise pair assembly: two ``take``s, no row dicts."""
    return Frame(
        {
            "event_id": ev["event_id"][m_ev],
            "job_id": jobs["job_id"][m_row],
            "event_time": ev["event_time"][m_ev],
            "errcode": ev["errcode"][m_ev],
            "executable": jobs["executable"][m_row],
            "user": jobs["user"][m_row],
            "project": jobs["project"][m_row],
            "size_midplanes": jobs["size_midplanes"][m_row],
            "job_location": jobs["location"][m_row],
            "mp": m_mp.astype(np.int64),
            "job_start": jobs["start_time"][m_row],
            "job_end": jobs["end_time"][m_row],
        }
    )


def _first_event_per_job(pairs: Frame) -> Frame:
    if pairs.num_rows == 0:
        return pairs
    ordered = pairs.sort_by("event_time", "event_id")
    return ordered.filter(first_occurrence_mask(ordered["job_id"]))


def _type_case_table(ev: Frame, case: np.ndarray) -> Frame:
    """Per-errcode counts of case-1/2/3 events (§IV-A raw material)."""
    codes, uniq = factorize(ev["errcode"])
    k = len(uniq)
    return Frame(
        {
            "errcode": uniq.astype(object),
            "case1": np.bincount(
                codes[case == CASE_INTERRUPTS], minlength=k
            ).astype(np.int64),
            "case2": np.bincount(
                codes[case == CASE_IDLE], minlength=k
            ).astype(np.int64),
            "case3": np.bincount(
                codes[case == CASE_RUNNING_UNHARMED], minlength=k
            ).astype(np.int64),
        }
    )


class _RawTypeIndex:
    """Raw sightings per errcode, broadcast across midplane spans.

    Rows are sorted by (errcode code, time) with the sighting midplane
    carried alongside, so one merge finds every query's time window and
    the midplanes sighted inside it.
    """

    def __init__(self, raw_events: FatalEventTable):
        frame = raw_events.frame
        codes, self._vocab = factorize(frame["errcode"])
        span = (frame["mp_hi"] - frame["mp_lo"] + 1).astype(np.int64)
        rep = np.repeat(np.arange(frame.num_rows, dtype=np.int64), span)
        mps = np.repeat(frame["mp_lo"], span) + _segmented_arange(span)
        times = frame["event_time"][rep]
        ccodes = codes[rep]
        order = np.lexsort((times, ccodes))
        self._codes = ccodes[order]
        self._times = times[order]
        self._mps = mps[order].astype(np.int64)

    def codes_for(self, errcodes: np.ndarray) -> np.ndarray:
        """Vocabulary codes of *errcodes*; -1 where the raw stream never
        saw the type (such queries can never hit)."""
        if not len(self._vocab) or not len(errcodes):
            return np.full(len(errcodes), -1, dtype=np.int64)
        idx = np.searchsorted(self._vocab, errcodes)
        idx = np.clip(idx, 0, len(self._vocab) - 1)
        return np.where(self._vocab[idx] == errcodes, idx, -1).astype(np.int64)

    def sighting_keys(
        self, codes: np.ndarray, times: np.ndarray, tol: float
    ) -> np.ndarray:
        """Sorted unique ``query_index * NUM_MIDPLANES + midplane`` keys
        over every raw sighting of ``codes[i]`` within
        ``[times[i] - tol, times[i] + tol]``.

        One merge finds every window at once: raw rows and both window
        edges are lexsorted together on (code, time); counting raw rows
        ahead of each edge in merged order is exactly the segmented
        ``searchsorted`` a per-code loop would run — and every
        comparison stays exact (no composite float keys).
        """
        n_d = len(self._codes)
        n_q = len(codes)
        if not n_d or not n_q:
            return np.zeros(0, dtype=np.int64)
        key_all = np.concatenate([self._codes, codes, codes])
        t_all = np.concatenate([self._times, times - tol, times + tol])
        # at an exact tie, the lower edge sorts before raw rows
        # (side="left") and the upper edge after them (side="right");
        # unseen codes (-1) precede every raw code and window nothing
        flag = np.concatenate(
            [
                np.ones(n_d, dtype=np.int8),
                np.zeros(n_q, dtype=np.int8),
                np.full(n_q, 2, dtype=np.int8),
            ]
        )
        order = np.lexsort((flag, t_all, key_all))
        is_data = order < n_d
        before = np.cumsum(is_data)
        probes = ~is_data
        ppos = order[probes]
        pcount = before[probes]
        lo = np.empty(n_q, dtype=np.int64)
        hi = np.empty(n_q, dtype=np.int64)
        is_lo = ppos < n_d + n_q
        lo[ppos[is_lo] - n_d] = pcount[is_lo]
        hi[ppos[~is_lo] - n_d - n_q] = pcount[~is_lo]

        counts = hi - lo
        rep = np.repeat(np.arange(n_q, dtype=np.int64), counts)
        rows = np.repeat(lo, counts) + _segmented_arange(counts)
        return np.unique(rep * NUM_MIDPLANES + self._mps[rows])
