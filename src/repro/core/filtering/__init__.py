"""Filtering stages for FATAL RAS records.

Three record-level filters (temporal, spatial, causality-related) are
prior art the paper builds on; the job-related filter is its
contribution and runs after interruption matching because it needs to
know which jobs each event killed. Each record-level filter is a
columnar kernel, golden-tested against a row-at-a-time reference
implementation kept with the tests (``tests/core/filtering_reference.py``).
"""

from repro.core.filtering.temporal import TemporalFilter
from repro.core.filtering.spatial import SpatialFilter
from repro.core.filtering.causal import CausalityFilter, CausalRule
from repro.core.filtering.job_related import JobRelatedFilter
from repro.core.filtering.chain import FilterChain, FilterStats

__all__ = [
    "TemporalFilter",
    "SpatialFilter",
    "CausalityFilter",
    "CausalRule",
    "JobRelatedFilter",
    "FilterChain",
    "FilterStats",
]
