"""Incremental streaming co-analysis (DESIGN.md §12).

Append-only ingestion with event-time watermarks: each increment
touches only the new tail plus an open-window frontier, and replaying a
trace in K increments is bit-identical to the one-shot batch pipeline
for any K — including cuts landing exactly on window edges.

* :mod:`repro.stream.windows` — half-open increment cuts and watermarks
* :mod:`repro.stream.filters` — incremental temporal/spatial/causal state
* :mod:`repro.stream.matcher` — the frontier interval-join matcher
* :mod:`repro.stream.runner` — the orchestrating runner + rolling stats
* :mod:`repro.stream.lateness` — bounded-lateness reorder buffer + sink
* :mod:`repro.stream.source` — tailing feeds with retry/backoff
* :mod:`repro.stream.checkpoint` — durable save/resume between increments
* :mod:`repro.stream.daemon` — poll→increment→checkpoint supervision
"""

from repro.stream.checkpoint import (
    load_checkpoint,
    save_checkpoint,
    validate_checkpoint,
)
from repro.stream.lateness import (
    BoundedLatenessStream,
    LateRecordSink,
    LatenessUpdate,
)
from repro.stream.runner import (
    StreamError,
    StreamingCoAnalysis,
    StreamUpdate,
    replay_trace,
)
from repro.stream.source import Feed, LogTailer, RetryPolicy
from repro.stream.windows import Increment, coverage_edges, split_trace

__all__ = [
    "BoundedLatenessStream",
    "Feed",
    "Increment",
    "LateRecordSink",
    "LatenessUpdate",
    "LogTailer",
    "RetryPolicy",
    "StreamError",
    "StreamingCoAnalysis",
    "StreamUpdate",
    "coverage_edges",
    "load_checkpoint",
    "replay_trace",
    "save_checkpoint",
    "split_trace",
    "validate_checkpoint",
]
