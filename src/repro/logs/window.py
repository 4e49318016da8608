"""The one time-window rule: how a log pair is cut by time.

The co-analysis joins the RAS log and the job log on time, and every
place the repo cuts either log by time follows one rule, kept here:

* **One key per table** (:data:`TIME_KEY`). RAS records window on
  ``event_time``; jobs on ``start_time`` — a job belongs to the window
  its start falls in, however long it runs.
* **Half-open windows** (:func:`select`). A window is ``[lo, hi)``, so a
  record landing exactly on a cut belongs to the window the cut opens
  and never to two.
* **Covering edges** (:func:`window_edges`). ``k`` equal-width windows
  over a closed span ``[t0, t1]`` put the last edge one ulp past ``t1``,
  so the span's maximum falls inside the last half-open window instead
  of the last window being closed on the right.
* **One span for the pair** (:func:`split_trace`). A log pair is cut
  over the union of both tables' key spans, so window *i* is the same
  wall-clock interval for RAS events and job starts.

The fleet store writes the frames of :func:`split_trace` as its shards
and row-filters pruned scans with :func:`select`; the stream replay
feeds the same increments to the streaming runner, whose watermark is
each increment's exclusive upper edge; ``RasLog.select_time`` and
``JobLog.select_time`` are :func:`select` on their own table. Both logs
are kept sorted by their key, so consecutive windows select consecutive
row runs and concatenating them restores each log exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.frame import Frame

if TYPE_CHECKING:
    from repro.logs.job import JobLog
    from repro.logs.ras import RasLog

__all__ = [
    "Increment",
    "TIME_KEY",
    "select",
    "split_trace",
    "union_span",
    "window_edges",
]

#: the key column each table is windowed (cut, sharded, pruned,
#: watermarked) on
TIME_KEY = {"ras": "event_time", "job": "start_time"}


def window_edges(t0: float, t1: float, windows: int) -> np.ndarray:
    """``windows + 1`` edges whose half-open windows cover ``[t0, t1]``.

    Equal-width over the span, except the final edge is nudged one ulp
    past ``t1`` so the closed maximum falls inside the last half-open
    window. Degenerate spans (``t0 == t1``) yield one non-empty last
    window ``[t1, t1 + ulp)`` and empty ones before it.
    """
    if windows < 1:
        raise ValueError(f"need at least one window, got {windows}")
    if not t1 >= t0:
        raise ValueError(f"invalid span [{t0}, {t1}]")
    edges = np.linspace(t0, t1, windows + 1)
    edges[-1] = np.nextafter(edges[-1], np.inf)
    return edges


def select(frame: Frame, table: str, lo: float, hi: float) -> Frame:
    """The rows of *table*'s *frame* whose key lies in ``[lo, hi)``."""
    t = frame[TIME_KEY[table]]
    return frame.filter((t >= lo) & (t < hi))


def union_span(
    *spans: tuple[float, float] | None,
) -> tuple[float, float] | None:
    """The smallest ``(lo, hi)`` holding every given span; ``None``
    entries (empty logs) are skipped, and ``None`` when all are."""
    present = [s for s in spans if s is not None]
    if not present:
        return None
    return min(s[0] for s in present), max(s[1] for s in present)


def _key_span(frame: Frame, table: str) -> tuple[float, float] | None:
    t = frame[TIME_KEY[table]]
    return (float(t.min()), float(t.max())) if len(t) else None


@dataclass(frozen=True)
class Increment:
    """One window of a cut log pair: both tables' rows plus its edges."""

    index: int
    t0: float
    #: exclusive upper edge of the window — the event-time watermark a
    #: producer asserts ("everything before this has arrived")
    watermark: float
    ras: RasLog
    job: JobLog


def split_trace(
    ras_log: RasLog,
    job_log: JobLog,
    increments: int | None = None,
    edges: np.ndarray | list[float] | None = None,
) -> list[Increment]:
    """Cut a log pair into half-open time windows.

    Either *increments* (equal-width windows from :func:`window_edges`
    over the union of both logs' key spans; ``[0, ulp)`` when both are
    empty) or explicit *edges* (ascending, with ``edges[-1]`` strictly
    above every key — boundary tests pin cuts exactly on event times
    this way). RAS records go to the window of their ``event_time``,
    jobs to the window of their ``start_time``.
    """
    if (increments is None) == (edges is None):
        raise ValueError("pass exactly one of increments= or edges=")
    if edges is None:
        t0, t1 = union_span(
            _key_span(ras_log.frame, "ras"), _key_span(job_log.frame, "job")
        ) or (0.0, 0.0)
        edges = window_edges(t0, t1, increments)
    edges = np.asarray(edges, dtype=np.float64)
    if len(edges) < 2 or np.any(np.diff(edges) < 0):
        raise ValueError("edges must be at least two ascending values")
    out = []
    for i in range(len(edges) - 1):
        lo, hi = float(edges[i]), float(edges[i + 1])
        out.append(
            Increment(
                index=i,
                t0=lo,
                watermark=hi,
                ras=ras_log.select_time(lo, hi),
                job=job_log.select_time(lo, hi),
            )
        )
    return out
