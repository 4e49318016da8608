"""Row-at-a-time reference for the fatal-event table.

This is the extraction loop :func:`repro.core.events.fatal_event_table`
ran before it parsed each distinct location once: ``parse_location``
per FATAL row, in row order. It stays as the oracle the gathered
version is pinned against. Do not optimize this module; its value is
being obviously correct.
"""

from __future__ import annotations

import numpy as np

from repro.core.events import FatalEventTable
from repro.frame import Frame
from repro.logs.ras import RasLog
from repro.machine.location import parse_location


def fatal_event_table_by_row(ras_log: RasLog) -> FatalEventTable:
    """The fatal-event table, one ``parse_location`` call per row."""
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
