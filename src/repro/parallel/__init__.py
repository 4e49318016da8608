"""The RAS file reader and the content-addressed parse cache.

Two cooperating pieces read a written log without changing a single
observable bit of its parse:

* :mod:`repro.parallel.chunking` / :mod:`repro.parallel.workers` /
  :mod:`repro.parallel.merge` / :mod:`repro.parallel.ingest` — the one
  RAS file reader, :func:`parallel_read_ras_frame`: split the log into
  line-aligned byte ranges, parse each (in the calling process when
  there is one, in a process pool otherwise), and deterministically
  merge candidates + defects into the exact result of a line-by-line
  pass (same frame, same quarantine report, same raises, every
  policy);
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
