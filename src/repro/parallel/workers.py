"""The per-chunk parse of the RAS file reader.

:func:`parse_ras_chunk` parses one line-aligned byte range of a RAS log
with the **context-free** checks of the block kernel — structure, typed
cells, vocabulary. Cross-record state (duplicate recids, time
ordering) cannot be decided inside a chunk, so it returns *candidate*
rows plus per-line defects in chunk-local coordinates;
:mod:`repro.parallel.merge` replays the cross-record checks and the
ingest policy over the merged stream. A FATAL-only read projects here,
batch by batch.

It takes a single picklable task tuple, so it runs the same in the
calling process (one chunk) or under ``Pool.map`` with any start
method.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter, process_time
from typing import TYPE_CHECKING, Iterator

from repro.logs.quarantine import SAMPLE_WIDTH, DefectClass
from repro.parallel.chunking import split_chunk_lines

if TYPE_CHECKING:
    from repro.logs.stream import RasRows

__all__ = [
    "RasChunk",
    "iter_line_batches",
    "parse_ras_chunk",
]


@dataclass
class RasChunk:
    """One parsed RAS chunk, in chunk-local coordinates.

    ``defects`` carries context-free bad lines as ``(local_line_index,
    defect, sample)``; ``cand`` holds the field-valid rows that still
    await the merge-time duplicate/ordering verdict. A projected chunk
    (``fatal_only``) ships every candidate's line index, recid and time
    but cells only for its FATAL candidates (``cand.kept``). No
    candidate ships its text: the merge reads the line of one it
    rejects back from the file.
    """

    n_lines: int
    defects: list[tuple[int, DefectClass, str]]
    cand: RasRows
    # worker-side telemetry: the parent process cannot observe a fork
    # worker's clocks, so each chunk ships its own measurements home
    # and the parent re-attaches them as child spans / counters
    wall_s: float = 0.0
    cpu_s: float = 0.0
    n_bytes: int = 0


def iter_line_batches(path: str, start: int, end: int) -> Iterator[list[str]]:
    """The data lines of the byte range ``[start, end)`` of *path*, in
    batches of about :data:`~repro.logs.stream._BATCH_CHARS` bytes.

    Each batch is extended to the next ``\\n`` byte, so no line,
    ``\\r\\n`` pair or multi-byte character straddles two batches, and
    the batches concatenate to :func:`split_chunk_lines` of the whole
    range. An empty range yields one empty batch.
    """
    from repro.logs.stream import _BATCH_CHARS

    with open(path, "rb") as fh:
        fh.seek(start)
        left = end - start
        while True:
            raw = fh.read(min(_BATCH_CHARS, left))
            if not raw.endswith(b"\n"):
                raw += fh.readline(left - len(raw))
            left -= len(raw)
            yield split_chunk_lines(raw)
            if left <= 0 or not raw:
                return


def parse_ras_chunk(task: tuple[str, int, int, bool]) -> RasChunk:
    """Parse one RAS data chunk: ``(path, start, end, fatal_only)``.

    The range is classified one :func:`iter_line_batches` batch at a
    time, all through one string table, so a worker holds one batch's
    lines and split cells at a time, however long its range. With
    *fatal_only* cells are built for the FATAL candidates only.
    """
    from repro.logs.stream import RasRows, parse_ras_block

    path, start, end, fatal_only = task
    t0, c0 = perf_counter(), process_time()
    table: dict = {}  # one string table for the whole chunk
    defects: list[tuple[int, DefectClass, str]] = []
    parts = []
    n_lines = 0
    for lines in iter_line_batches(path, start, end):
        found, rows = parse_ras_block(lines, table, fatal_only)
        defects.extend(
            (n_lines + i, d, lines[i][:SAMPLE_WIDTH]) for i, d in found
        )
        rows.lines += n_lines
        parts.append(rows)
        n_lines += len(lines)
    return RasChunk(
        n_lines=n_lines,
        defects=defects,
        cand=RasRows.concat(parts),
        wall_s=perf_counter() - t0,
        cpu_s=process_time() - c0,
        n_bytes=end - start,
    )
