"""The log file readers: line-aligned byte ranges parsed in bounded batches.

Both written logs are read through one path: :func:`scan_header`
finds the data region, :class:`~repro.parallel.workers.ParsedRange`
decodes and classifies it one batch at a time, and
:func:`note_parse_chunk` notes each range's telemetry. Only the block
kernels differ.

:func:`parallel_read_ras_frame` is the one reader of a written RAS
file, at every worker count. It splits the data region into byte-range
chunks (:mod:`repro.parallel.chunking`), parses each
(:mod:`repro.parallel.workers`), and merges them deterministically
(:mod:`repro.parallel.merge`). One planned chunk (``workers=1``) is
parsed in the calling process; several go to a ``multiprocessing``
pool. The result — frame, quarantine report, or raised
``IngestError``/``IngestAbortError`` — is bit-identical to a
line-by-line parse under every policy, whatever the chunking.

:func:`read_job_frame` reads a written job log as one range in this
process, with the delimited kernel
(:func:`repro.frame.io.parse_delimited_block`) and one string table per
column shared by every batch. It holds a batch's lines and cells at a
time plus the typed columns it returns.
"""

from __future__ import annotations

import multiprocessing
import os
from pathlib import Path

import numpy as np

from repro.frame.frame import Frame
from repro.frame.io import parse_delimited_block
from repro.logs.job import JOB_COLUMNS, JOB_TAGS, check_job_header
from repro.logs.quarantine import (
    IngestPolicy,
    QuarantineReport,
    coerce_policy,
    replay_defects,
)
from repro.obs.metrics import get_metrics
from repro.obs.trace import current_tracer
from repro.parallel.chunking import plan_chunks, scan_header
from repro.parallel.merge import chunks_in_order, file_defects, merge_ras_chunks
from repro.parallel.workers import (
    ChunkTask,
    ParsedRange,
    RasChunk,
    parse_ras_chunk,
)

__all__ = [
    "effective_cpu_count",
    "note_parse_chunk",
    "resolve_workers",
    "parallel_read_ras_frame",
    "read_job_frame",
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


def _run_chunks(tasks: list[ChunkTask], workers: int) -> list[RasChunk]:
    """Parse chunk *tasks*, in a pool when there are several workers."""
    n = min(workers, len(tasks))
    if n <= 1:
        return [parse_ras_chunk(t) for t in tasks]
    methods = multiprocessing.get_all_start_methods()
    ctx = multiprocessing.get_context("fork" if "fork" in methods else None)
    with ctx.Pool(processes=n) as pool:
        return pool.map(parse_ras_chunk, tasks)


def note_parse_chunk(index: int, chunk: ParsedRange, note: str = "") -> None:
    """Telemetry of one parsed chunk of a log's data lines.

    Every text reader notes its chunks here — the RAS reader's planned
    chunks (one at ``workers=1``) and the job reader's one chunk — so
    parses of the same file at any worker count give the same
    ``ingest.chunk.records`` (data lines read, bad ones included) and
    ``ingest.chunk.bytes`` totals, one
    ``ingest.chunk.wall_s`` sample per chunk, and one
    ``ingest.parse.chunk`` child span of the current span per chunk.
    """
    registry = get_metrics()
    registry.counter("ingest.chunk.records").inc(chunk.n_lines)
    registry.counter("ingest.chunk.bytes").inc(chunk.n_bytes)
    registry.histogram("ingest.chunk.wall_s").observe(chunk.wall_s)
    tracer = current_tracer()
    if tracer is not None:
        tracer.attach(
            "ingest.parse.chunk",
            wall_s=chunk.wall_s,
            cpu_s=chunk.cpu_s,
            rows=chunk.n_lines,
            note=note,
            chunk=index,
            bytes=chunk.n_bytes,
        )


def parallel_read_ras_frame(
    path: str | Path,
    policy: "IngestPolicy | str | None" = None,
    report: QuarantineReport | None = None,
    workers: int = 0,
    chunk_bounds: list[tuple[int, int]] | None = None,
    fatal_only: bool = False,
) -> Frame:
    """Parse a written RAS log in line-aligned chunks; RAS frame out.

    The data region is planned as up to *workers* chunks (0 = one per
    available CPU); *chunk_bounds* overrides the planned byte ranges
    (tests use it to pin defects onto chunk boundaries). The returned
    frame carries the in-memory RAS columns; an empty data region
    yields a frame the caller may swap for ``empty_ras_log()``. With
    *fatal_only* the frame holds the FATAL rows only: each chunk checks
    every line of its range but keeps only its FATAL candidates while
    every candidate follows the one before it in recid and time, which
    leaves nothing to replay. If one does not, the file is parsed a
    second time keeping every candidate's line, recid and time (cells
    for the FATAL ones only), counted by ``ingest.ras.reparsed``, and
    the merge replays the cross-record checks, reading the sample of a
    candidate it rejects back from the file. Only the returned pass's
    chunks are noted (:func:`note_parse_chunk`).
    """
    from repro.logs.textio import check_ras_header

    pol = coerce_policy(policy)
    if report is None:
        report = pol.new_report(str(path))
    n_workers = resolve_workers(workers)

    header, data_start = scan_header(path)
    if not header:
        return Frame()
    check_ras_header(header)
    if chunk_bounds is None:
        chunk_bounds = plan_chunks(str(path), n_workers, data_start)
    tasks = [
        ChunkTask(str(path), start, end, fatal_only)
        for start, end in chunk_bounds
    ]
    chunks = _run_chunks(tasks, n_workers)
    if fatal_only and not chunks_in_order(chunks):
        # a duplicate, a time regression or recids out of order: parse
        # again with every candidate's line, recid and time, for the replay
        get_metrics().counter("ingest.ras.reparsed").inc()
        tasks = [t._replace(every_row=True) for t in tasks]
        chunks = _run_chunks(tasks, n_workers)
    # fork workers cannot reach this process's tracer or registry, so
    # each chunk carries its own measurements home to be noted here
    n = min(n_workers, len(chunks))
    for i, chunk in enumerate(chunks):
        note_parse_chunk(i, chunk, f"{n} workers" if n > 1 else "")
    return merge_ras_chunks(chunks, pol, report, str(path), chunk_bounds)


def read_job_frame(
    path: str | Path,
    policy: "IngestPolicy | str | None" = None,
    report: QuarantineReport | None = None,
) -> Frame:
    """Parse a written job log in bounded batches; job frame out.

    The header must be the :data:`~repro.logs.job.JOB_SCHEMA` header
    (``ValueError`` otherwise); a blank first line gives an empty
    ``Frame()``. The data region is one range, classified batch by batch
    with :func:`~repro.frame.io.parse_delimited_block`; each string
    column shares one table across the batches, so it holds one ``str``
    per distinct value. The defects are routed through *policy* in line
    order afterwards, as the RAS merge routes its own.
    """
    pol = coerce_policy(policy)
    if report is None:
        report = pol.new_report(str(path))
    header, data_start = scan_header(path)
    if not header:
        return Frame()
    check_job_header(header)
    tables = [{} for _ in JOB_COLUMNS]
    chunk = ParsedRange()
    batches = [
        arrays
        for _, arrays in chunk.parse(
            str(path), data_start, os.path.getsize(path),
            lambda lines: parse_delimited_block(
                lines, JOB_COLUMNS, JOB_TAGS, tables=tables
            ),
        )
    ]
    note_parse_chunk(0, chunk)
    replay_defects(pol, report, file_defects([chunk])[1], chunk.n_lines)
    # one column at a time, each column's batches freed once it is joined
    columns = [list(col) for col in zip(*batches)]
    del batches
    data = {}
    for name, parts in zip(JOB_COLUMNS, columns):
        data[name] = parts[0] if len(parts) == 1 else np.concatenate(parts)
        parts.clear()
    return Frame(data)
