"""The RAS file reader: line-aligned chunks, parsed in-process or in a pool.

:func:`parallel_read_ras_frame` is the one reader of a written RAS
file, at every worker count. It splits the data region into byte-range
chunks (:mod:`repro.parallel.chunking`), parses each
(:mod:`repro.parallel.workers`), and merges them deterministically
(:mod:`repro.parallel.merge`). One planned chunk (``workers=1``) is
parsed in the calling process; several go to a ``multiprocessing``
pool. The result — frame, quarantine report, or raised
``IngestError``/``IngestAbortError`` — is bit-identical to a
line-by-line parse under every policy, whatever the chunking. The job
log has no pool: it is read serially, as one block.
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
from repro.parallel.merge import chunks_in_order, merge_ras_chunks
from repro.parallel.workers import ChunkTask, RasChunk, parse_ras_chunk

__all__ = [
    "effective_cpu_count",
    "note_parse_chunk",
    "resolve_workers",
    "parallel_read_ras_frame",
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


def note_parse_chunk(
    index: int,
    lines: int,
    n_bytes: int,
    wall_s: float,
    cpu_s: float,
    note: str = "",
) -> None:
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
        note_parse_chunk(
            i, chunk.n_lines, chunk.n_bytes, chunk.wall_s, chunk.cpu_s,
            f"{n} workers" if n > 1 else "",
        )
    return merge_ras_chunks(chunks, pol, report, str(path), chunk_bounds)
