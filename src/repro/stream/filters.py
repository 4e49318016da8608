"""Carried state for the chain-collapse filters across increments.

The temporal and spatial filters are *prefix-decomposable*: by the
chain semantics of :func:`repro.frame.column.chain_collapse_mask`,
whether an event survives depends only on the time of the
**immediately preceding event of its group** (kept or dropped).
:class:`ChainState` therefore carries each group's last row, prepends
those rows to the next chunk, asks the batch filter for the keep mask
over the extended frame and discards the carried rows' entries: exactly
the batch decision for the chunk's rows. The batch filter alone defines
the groups. A carried row more than the threshold before the next
chunk starts can suppress nothing, so it is dropped first: the carry
holds the groups of the last chunk and of the threshold before it, not
every group ever seen.

The causality filter is **not** prefix-decomposable — its rules are
mined over the whole stream — so the runner applies the batch
:class:`~repro.core.filtering.causal.CausalityFilter` once, at result
time, over the spatial survivors (see :mod:`repro.stream.runner`).
"""

from __future__ import annotations

import numpy as np

from repro.core.filtering.temporal import ChainCollapseFilter
from repro.frame import Frame, concat

__all__ = ["ChainState"]


class ChainState:
    """One chain-collapse filter's carry across increments."""

    def __init__(self, chain_filter: ChainCollapseFilter):
        self.filter = chain_filter
        #: each group's last row (kept or dropped), in time order, for
        #: the groups of the last chunk and of the threshold before it
        self.carry: Frame | None = None

    def apply(self, frame: Frame) -> np.ndarray:
        """Keep-mask over *frame*, updating the carry.

        *frame* is a chunk sorted by ``(event_time, event_id)`` whose
        rows all come after every carried row.
        """
        if frame.num_rows == 0:
            return np.zeros(0, dtype=bool)
        if self.carry is not None:
            # a carried row further than the threshold before the chunk
            # starts suppresses none of it (the gap test of
            # chain_collapse_mask), so its group starts afresh either way
            gap = frame["event_time"][0] - self.carry["event_time"]
            self.carry = self.carry.filter(~(gap > self.filter.threshold))
        m = 0 if self.carry is None else self.carry.num_rows
        full = concat([self.carry, frame]) if m else frame
        codes, keep = self.filter.group_keep(full)
        # a group's last row is its first in reversed order
        _, first = np.unique(codes[::-1], return_index=True)
        self.carry = full.take(np.sort(len(codes) - 1 - first))
        return keep[m:]
