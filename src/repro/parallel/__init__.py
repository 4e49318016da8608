"""Parallel chunked ingestion and the content-addressed parse cache.

Three cooperating pieces speed up the ingest-bound half of the
pipeline without changing a single observable bit of its output:

* :mod:`repro.parallel.chunking` / :mod:`repro.parallel.workers` /
  :mod:`repro.parallel.merge` — split a RAS log into line-aligned byte
  ranges, parse each in a worker process, and deterministically merge
  candidates + defects back into the serial reader's exact result
  (same frame, same quarantine report, same raises, every policy);
* :mod:`repro.parallel.ingest` — the pool orchestration and
  :func:`parallel_read_ras_frame`, which the RAS reader dispatches to;
* :mod:`repro.parallel.cache` — a content-addressed on-disk cache of
  parsed frames so reruns over unchanged logs skip parsing entirely.
"""

from repro.parallel.cache import PARSE_SCHEMA_VERSION, ParseCache
from repro.parallel.chunking import plan_chunks, scan_header, split_chunk_lines
from repro.parallel.ingest import (
    effective_cpu_count,
    parallel_read_ras_frame,
    resolve_workers,
)
from repro.parallel.merge import merge_ras_chunks, replay_cross_record
from repro.parallel.workers import parse_ras_chunk

__all__ = [
    "PARSE_SCHEMA_VERSION",
    "ParseCache",
    "plan_chunks",
    "scan_header",
    "split_chunk_lines",
    "effective_cpu_count",
    "resolve_workers",
    "parallel_read_ras_frame",
    "merge_ras_chunks",
    "replay_cross_record",
    "parse_ras_chunk",
]
