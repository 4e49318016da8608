"""Incremental streaming co-analysis (DESIGN.md §12).

Append-only ingestion with event-time watermarks: each increment
touches only the new tail plus an open-window frontier, and replaying a
trace in K increments is bit-identical to the one-shot batch pipeline
for any K — including cuts landing exactly on window edges. The cuts
and their watermarks follow the one time-window rule,
:mod:`repro.logs.window` (``split_trace`` and ``Increment`` are
re-exported here).

* :mod:`repro.stream.filters` — carried temporal/spatial chain state
* :mod:`repro.stream.matcher` — the frontier interval-join matcher
* :mod:`repro.stream.runner` — the orchestrating runner + rolling stats
* :mod:`repro.stream.lateness` — bounded-lateness reorder buffer + sink
* :mod:`repro.stream.source` — tailing feeds with retry/backoff
* :mod:`repro.stream.checkpoint` — durable save/resume between increments
* :mod:`repro.stream.daemon` — poll→increment→checkpoint supervision
"""

from repro.logs.window import Increment, split_trace
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
)
from repro.stream.source import Feed, LogTailer, RetryPolicy

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
    "load_checkpoint",
    "save_checkpoint",
    "split_trace",
    "validate_checkpoint",
]
