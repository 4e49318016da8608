"""Spatial filtering (refs. [12], [9]).

Removes the same ERRCODE reported from *different* locations within a
threshold — the fan-out a parallel job produces when every allocated
node reports the same fault (§VI-C). Chain semantics over the type's
time-ordered stream, location-agnostic.

Columnar kernel: the temporal filter's
:class:`~repro.core.filtering.temporal.ChainCollapseFilter`, with the
group key reduced to the errcode alone. Row-at-a-time original in
``tests/core/filtering_reference.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.filtering.temporal import ChainCollapseFilter
from repro.frame import Frame
from repro.frame.column import factorize


@dataclass(frozen=True)
class SpatialFilter(ChainCollapseFilter):
    """Chain-collapse duplicates of one type across locations."""

    def group_codes(self, frame: Frame) -> np.ndarray:
        codes, _ = factorize(frame["errcode"])
        return codes
