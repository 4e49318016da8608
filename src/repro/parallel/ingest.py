"""Chunk-parallel ingestion: fan line-aligned chunks out to a pool.

The entry points mirror the serial validating readers exactly —
:func:`parallel_read_ras_frame` corresponds to one full pass of
:func:`repro.logs.stream.iter_ras_chunks`, and
:func:`parallel_read_delimited` to the validating path of
:func:`repro.frame.io.read_delimited` — but split the file into
byte-range chunks (:mod:`repro.parallel.chunking`), parse each in a
``multiprocessing`` worker (:mod:`repro.parallel.workers`), and merge
deterministically (:mod:`repro.parallel.merge`). The result — frame,
quarantine report, or raised ``IngestError``/``IngestAbortError`` — is
bit-identical to the serial parse under every policy.
"""

from __future__ import annotations

import multiprocessing
import os
from pathlib import Path

from repro.frame.frame import Frame
from repro.logs.quarantine import (
    IngestPolicy,
    QuarantineReport,
    coerce_policy,
)
from repro.obs.metrics import get_metrics
from repro.obs.trace import current_tracer
from repro.parallel.chunking import plan_chunks, scan_header
from repro.parallel.merge import merge_delim_chunks, merge_ras_chunks
from repro.parallel.workers import parse_delim_chunk, parse_ras_chunk

__all__ = [
    "effective_cpu_count",
    "note_parse_chunk",
    "resolve_workers",
    "parallel_read_ras_frame",
    "parallel_read_delimited",
]


def effective_cpu_count() -> int:
    """CPUs actually available to this process (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:  # platforms without affinity masks
        return os.cpu_count() or 1


def resolve_workers(workers: int) -> int:
    """Effective worker count: ``0`` means auto, otherwise as given."""
    if workers < 0:
        raise ValueError(f"workers must be non-negative, got {workers}")
    if workers == 0:
        return effective_cpu_count()
    return workers


def _run_chunks(worker, tasks: list, workers: int) -> list:
    """Map *worker* over chunk *tasks*, pooled when it pays off."""
    n = min(workers, len(tasks))
    if n <= 1 or len(tasks) <= 1:
        chunks = [worker(t) for t in tasks]
    else:
        methods = multiprocessing.get_all_start_methods()
        ctx = multiprocessing.get_context(
            "fork" if "fork" in methods else None
        )
        with ctx.Pool(processes=n) as pool:
            chunks = pool.map(worker, tasks)
    # fork workers cannot reach this process's tracer or registry, so
    # each chunk carries its own measurements home to be noted here
    note = f"{n} workers" if n > 1 else ""
    for i, chunk in enumerate(chunks):
        note_parse_chunk(
            i, chunk.n_lines, chunk.n_bytes, chunk.wall_s, chunk.cpu_s, note
        )
    return chunks


def note_parse_chunk(
    index: int,
    lines: int,
    n_bytes: int,
    wall_s: float,
    cpu_s: float,
    note: str = "",
) -> None:
    """Telemetry of one parsed chunk of a log's data lines.

    Every text reader notes its chunks here — the pool's, and the serial
    RAS reader's 100k-row chunks — so a serial and a parallel parse of
    the same file give the same ``ingest.chunk.records`` (data lines
    read, bad ones included) and ``ingest.chunk.bytes`` totals, one
    ``ingest.chunk.wall_s`` sample per chunk, and one
    ``ingest.parse.chunk`` child span of the current span per chunk.
    """
    registry = get_metrics()
    registry.counter("ingest.chunk.records").inc(lines)
    registry.counter("ingest.chunk.bytes").inc(n_bytes)
    registry.histogram("ingest.chunk.wall_s").observe(wall_s)
    tracer = current_tracer()
    if tracer is not None:
        tracer.attach(
            "ingest.parse.chunk",
            wall_s=wall_s,
            cpu_s=cpu_s,
            rows=lines,
            note=note,
            chunk=index,
            bytes=n_bytes,
        )


def parallel_read_ras_frame(
    path: str | Path,
    policy: "IngestPolicy | str | None" = None,
    report: QuarantineReport | None = None,
    workers: int = 0,
    chunk_bounds: list[tuple[int, int]] | None = None,
) -> Frame:
    """Parse a written RAS log in parallel; disk-layout frame out.

    *chunk_bounds* overrides the planned byte ranges (tests use it to
    pin defects onto chunk boundaries). The returned frame carries the
    in-memory RAS columns; an empty data region yields a typed empty
    frame the caller may swap for ``empty_ras_log()``.
    """
    from repro.logs.stream import _DISK_COLUMNS

    pol = coerce_policy(policy)
    if report is None:
        report = pol.new_report(str(path))
    n_workers = resolve_workers(workers)

    header, data_start = scan_header(path)
    if not header:
        return Frame()
    names = [cell.rpartition(":")[0] for cell in header.split("|")]
    if tuple(names) != _DISK_COLUMNS:
        raise ValueError(f"unexpected RAS header {names}")
    if chunk_bounds is None:
        chunk_bounds = plan_chunks(str(path), n_workers, data_start)
    tasks = [(str(path), start, end) for start, end in chunk_bounds]
    chunks = _run_chunks(parse_ras_chunk, tasks, n_workers)
    return merge_ras_chunks(chunks, pol, report)


def parallel_read_delimited(
    path: str | Path,
    sep: str = "|",
    policy: "IngestPolicy | str | None" = None,
    report: QuarantineReport | None = None,
    workers: int = 0,
    chunk_bounds: list[tuple[int, int]] | None = None,
) -> Frame:
    """Parse a typed-header delimited file in parallel (validating path).

    Matches ``read_delimited(path, sep, policy=...)`` bit for bit. The
    legacy non-validating path (``policy=None``) stays serial — it
    coerces to the strict policy here, which classifies the same lines
    as bad but raises the typed :class:`IngestError` instead of a plain
    ``ValueError``; callers who need the legacy exception must use the
    serial reader. With one worker the file is one chunk, parsed inline:
    that is how :func:`repro.logs.textio.read_job_log` reads serially.
    """
    from repro.frame.io import _parse_header

    pol = coerce_policy(policy)
    if report is None:
        report = pol.new_report(str(path))
    n_workers = resolve_workers(workers)

    header, data_start = scan_header(path)
    if not header:
        return Frame()
    names, tags = _parse_header(header, sep)
    if chunk_bounds is None:
        chunk_bounds = plan_chunks(str(path), n_workers, data_start)
    tasks = [
        (str(path), start, end, sep, tuple(names), tuple(tags))
        for start, end in chunk_bounds
    ]
    chunks = _run_chunks(parse_delim_chunk, tasks, n_workers)
    return merge_delim_chunks(chunks, names, tags, pol, report)
