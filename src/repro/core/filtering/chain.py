"""The record-level filter chain with per-stage accounting."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.events import FatalEventTable
from repro.core.filtering.causal import CausalityFilter
from repro.core.filtering.spatial import SpatialFilter
from repro.core.filtering.temporal import TemporalFilter
from repro.obs.metrics import get_metrics
from repro.obs.trace import maybe_span


@dataclass(frozen=True)
class FilterStats:
    """Record counts through the chain (the §IV compression numbers)."""

    raw: int
    after_temporal: int
    after_spatial: int
    after_causal: int

    @property
    def compression_ratio(self) -> float:
        """Fraction of raw FATAL records removed (paper: 98.35%)."""
        if self.raw == 0:
            return 0.0
        return 1.0 - self.after_causal / self.raw


@dataclass
class FilterChain:
    """temporal → spatial → causality, as in Figure 1."""

    temporal: TemporalFilter = field(default_factory=TemporalFilter)
    spatial: SpatialFilter = field(default_factory=SpatialFilter)
    causal: CausalityFilter = field(default_factory=CausalityFilter)
    stats: FilterStats | None = None
    #: the post-temporal record table, kept for the matcher's
    #: cross-location attribution (shared-file-system propagation)
    temporal_table: FatalEventTable | None = None

    def apply(self, events: FatalEventTable) -> FatalEventTable:
        """Run the three filters; each is a ``filter.*`` span that nests
        under the pipeline's ``filter`` stage."""
        raw = len(events)
        with maybe_span("filter.temporal") as sp:
            t = self.temporal.apply(events)
            sp.rows = len(t)
        with maybe_span("filter.spatial") as sp:
            s = self.spatial.apply(t)
            sp.rows = len(s)
        with maybe_span("filter.causal") as sp:
            c = self.causal.apply(s)
            sp.rows = len(c)
        self.stats = FilterStats(
            raw=raw,
            after_temporal=len(t),
            after_spatial=len(s),
            after_causal=len(c),
        )
        registry = get_metrics()
        registry.counter("kernel.filter.candidates").inc(raw)
        registry.counter("kernel.filter.emitted").inc(len(c))
        for stage, kept in (
            ("temporal", len(t)),
            ("spatial", len(s)),
            ("causal", len(c)),
        ):
            registry.counter("kernel.filter.kept", stage=stage).inc(kept)
        self.temporal_table = t
        return c
