"""Spatial filtering (refs. [12], [9]).

Removes the same ERRCODE reported from *different* locations within a
threshold — the fan-out a parallel job produces when every allocated
node reports the same fault (§VI-C). Chain semantics over the type's
time-ordered stream, location-agnostic.

Columnar kernel: identical shape to the temporal filter's, with the
group key reduced to the errcode alone — one ``lexsort`` plus a
segment-boundary chain collapse (:func:`repro.frame.column.chain_collapse_mask`).
Row-at-a-time original in ``tests/core/filtering_reference.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.events import FatalEventTable
from repro.frame.column import chain_collapse_mask, factorize


@dataclass(frozen=True)
class SpatialFilter:
    """Chain-collapse duplicates of one type across locations."""

    threshold: float = 300.0

    def __post_init__(self) -> None:
        if self.threshold < 0:
            raise ValueError(
                f"threshold must be non-negative, got {self.threshold}"
            )

    def apply(self, events: FatalEventTable) -> FatalEventTable:
        frame = events.frame.sort_by("event_time", "event_id")
        if frame.num_rows == 0:
            return FatalEventTable(frame)
        codes, _ = factorize(frame["errcode"])
        keep = chain_collapse_mask(codes, frame["event_time"], self.threshold)
        return FatalEventTable(frame.filter(keep))
