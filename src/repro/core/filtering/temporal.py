"""Temporal filtering (refs. [12], [9]).

Removes repeated reports of the same ERRCODE from the same LOCATION:
within a (errcode, location) stream, any event closer than ``threshold``
seconds to its predecessor is redundant, chain-wise — the classic
constant-threshold temporal filter of Liang et al.

This module holds the **columnar kernel** it shares with the spatial
filter, :class:`ChainCollapseFilter`: one grouped sort over group codes
and event times, then a shifted segment-boundary comparison
(:func:`repro.frame.column.chain_collapse_mask`) marks chain starts for
every group at once. The temporal groups are (errcode × location). The
row-at-a-time original is kept with the tests
(``tests/core/filtering_reference.py``) and golden-tested for
bit-identical output.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.events import FatalEventTable
from repro.frame import Frame
from repro.frame.column import chain_collapse_mask, factorize


@dataclass(frozen=True)
class ChainCollapseFilter:
    """The chain-collapse kernel the temporal and spatial filters share.

    An event is dropped when it is within ``threshold`` (inclusive) of
    the previous event of its group — kept *or dropped*: a dropped event
    still extends the suppression window (chain semantics). A subclass
    defines only its groups, in :meth:`group_codes`.
    """

    threshold: float = 300.0

    def __post_init__(self) -> None:
        if self.threshold < 0:
            raise ValueError(
                f"threshold must be non-negative, got {self.threshold}"
            )

    def group_codes(self, frame: Frame) -> np.ndarray:
        """Integer codes equal exactly for rows of one group."""
        raise NotImplementedError

    def group_keep(self, frame: Frame) -> tuple[np.ndarray, np.ndarray]:
        """``(group codes, keep mask)`` over *frame*, which must be
        sorted by ``(event_time, event_id)``."""
        codes = self.group_codes(frame)
        return codes, chain_collapse_mask(
            codes, frame["event_time"], self.threshold
        )

    def apply(self, events: FatalEventTable) -> FatalEventTable:
        """Events surviving the filter (first of every chain)."""
        frame = events.frame.sort_by("event_time", "event_id")
        if frame.num_rows == 0:
            return FatalEventTable(frame)
        _, keep = self.group_keep(frame)
        return FatalEventTable(frame.filter(keep))


@dataclass(frozen=True)
class TemporalFilter(ChainCollapseFilter):
    """Chain-collapse duplicates at one location."""

    def group_codes(self, frame: Frame) -> np.ndarray:
        # the mask only needs codes that *distinguish* (errcode, location)
        # groups, so combine per-column codes directly — no dense
        # re-factorization of the composite key
        code_a, _ = factorize(frame["errcode"])
        code_b, uniq_b = factorize(frame["location"])
        return code_a * max(len(uniq_b), 1) + code_b
