"""The fatal-event table every pipeline stage operates on.

Filtering, matching, and classification all work on a frame of FATAL
records with the location pre-resolved to its midplane span. A location
below midplane granularity touches one midplane (``mp_lo == mp_hi``); a
rack-level location (e.g. bulk power) spans the rack's two midplanes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.frame import Frame
from repro.logs.ras import RasLog
from repro.machine.location import parse_location

#: columns of the fatal-event frame
EVENT_COLUMNS = (
    "event_id",
    "event_time",
    "errcode",
    "component",
    "location",
    "mp_lo",
    "mp_hi",
)


@dataclass
class FatalEventTable:
    """A frame of fatal events plus convenience accessors.

    ``event_id`` survives filtering, so downstream stages can refer to
    events stably across the pipeline.
    """

    frame: Frame

    def __len__(self) -> int:
        return self.frame.num_rows

    @property
    def num_events(self) -> int:
        return self.frame.num_rows

    def errcodes(self) -> np.ndarray:
        return self.frame.unique("errcode")

    def interarrival_times(self) -> np.ndarray:
        """Positive gaps between successive events, systemwide (§V-A).

        Zero gaps (events sharing a timestamp) are dropped — a Weibull
        fit needs positive support, and the paper fits interarrivals of
        *distinct* failures.
        """
        t = np.sort(self.frame["event_time"])
        gaps = np.diff(t)
        return gaps[gaps > 0]

    def select_ids(self, keep_ids: np.ndarray) -> "FatalEventTable":
        mask = self.frame.mask_isin("event_id", list(keep_ids))
        return FatalEventTable(self.frame.filter(mask))

    def drop_ids(self, drop_ids: np.ndarray | set) -> "FatalEventTable":
        drop = set(int(i) for i in drop_ids)
        mask = np.fromiter(
            (int(i) not in drop for i in self.frame["event_id"]),
            count=self.frame.num_rows,
            dtype=bool,
        )
        return FatalEventTable(self.frame.filter(mask))

    def midplane_counts(self, num_midplanes: int = 80) -> np.ndarray:
        """Events per midplane (rack-level events count on both)."""
        counts = np.zeros(num_midplanes, dtype=np.int64)
        lo = self.frame["mp_lo"]
        hi = self.frame["mp_hi"]
        for a, b in zip(lo, hi):
            counts[a : b + 1] += 1
        return counts


def fatal_event_table(ras_log: RasLog) -> FatalEventTable:
    """Extract FATAL records into the pipeline's event frame.

    ``event_id`` is assigned by position in the log's row order, before
    the frame is sorted by time.
    """
    fatal = ras_log.fatal().frame
    n = fatal.num_rows
    mp_lo = np.empty(n, dtype=np.int64)
    mp_hi = np.empty(n, dtype=np.int64)
    for i, loc in enumerate(fatal["location"]):
        span = parse_location(loc).midplane_indices()
        mp_lo[i] = span[0]
        mp_hi[i] = span[-1]
    frame = Frame(
        {
            "event_id": np.arange(n, dtype=np.int64),
            "event_time": fatal["event_time"],
            "errcode": fatal["errcode"],
            "component": fatal["component"],
            "location": fatal["location"],
            "mp_lo": mp_lo,
            "mp_hi": mp_hi,
        }
    )
    return FatalEventTable(frame.sort_by("event_time", "event_id"))
