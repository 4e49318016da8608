"""The per-chunk parse of the log file readers.

A written log becomes lines in one place: :func:`iter_line_batches`
decodes a line-aligned byte range in bounded batches, and
:meth:`ParsedRange.parse` runs a block kernel over each batch, numbering
its defects and timing the range. The job-log reader
(:func:`repro.parallel.ingest.read_job_frame`) runs the delimited
kernel over its one range; the RAS reader runs the RAS kernel over
each of its chunks.

:func:`parse_ras_chunk` parses one line-aligned byte range of a RAS log
with the **context-free** checks of the block kernel — structure, typed
cells, vocabulary. Cross-record state (duplicate recids, time
ordering) cannot be decided inside a chunk, so it returns *candidate*
rows plus per-line defects in chunk-local coordinates;
:mod:`repro.parallel.merge` replays the cross-record checks and the
ingest policy over the merged stream.

A FATAL-only read projects here, batch by batch. Its first pass keeps
only the FATAL candidates, plus a summary that shows whether every
candidate follows the one before it (recids strictly increasing, no
time below the running max): such a log needs no replay, since no
candidate can be a duplicate or out of order. A chunk whose candidates
break that order stops at the offending batch, and the reader parses
the file again with every candidate's line, recid and time kept
(``ChunkTask.every_row``) for the merge to replay.

It takes a single picklable task tuple, so it runs the same in the
calling process (one chunk) or under ``Pool.map`` with any start
method.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter, process_time
from typing import TYPE_CHECKING, Any, Callable, Iterator, NamedTuple

from repro.logs.quarantine import SAMPLE_WIDTH, DefectClass
from repro.parallel.chunking import split_chunk_lines

if TYPE_CHECKING:
    from repro.logs.stream import RasRows

__all__ = [
    "ChunkTask",
    "ParsedRange",
    "RasChunk",
    "iter_line_batches",
    "parse_ras_chunk",
]


class ChunkTask(NamedTuple):
    """One chunk to parse: the byte range ``[start, end)`` of *path*.

    *every_row* marks a FATAL-only second pass, which keeps every
    candidate's line, recid and time for the merge's replay; a plain
    ``(path, start, end, fatal_only)`` tuple is a first pass.
    """

    path: str
    start: int
    end: int
    fatal_only: bool = False
    every_row: bool = False


@dataclass
class ParsedRange:
    """The data lines of one byte range, classified batch by batch.

    ``n_lines`` counts the range's lines and ``defects`` carries its
    context-free bad lines as ``(local_line_index, defect, sample)``.
    The range's parse telemetry rides along: the parent process cannot
    observe a fork worker's clocks, so each chunk ships its own
    measurements home and the parent notes them
    (:func:`repro.parallel.ingest.note_parse_chunk`).
    """

    n_lines: int = 0
    defects: list[tuple[int, DefectClass, str]] = field(default_factory=list)
    wall_s: float = 0.0
    cpu_s: float = 0.0
    n_bytes: int = 0

    def parse(
        self,
        path: str,
        start: int,
        end: int,
        kernel: Callable[[list[str]], tuple[list, Any]],
    ) -> Iterator[tuple[int, Any]]:
        """Run *kernel* over the :func:`iter_line_batches` batches of
        ``[start, end)`` of *path*; yield ``(first, rows)`` per batch.

        *kernel* maps a batch's lines to ``(defects, rows)``, its
        defects as ``(index in the batch, defect)``; *first* is the
        batch's first line's index in the range. Each defect is added to
        ``defects`` with its range index and sample. The telemetry is
        set once the last batch is parsed.
        """
        t0, c0 = perf_counter(), process_time()
        for lines in iter_line_batches(path, start, end):
            first = self.n_lines
            found, rows = kernel(lines)
            self.defects.extend(
                (first + i, d, lines[i][:SAMPLE_WIDTH]) for i, d in found
            )
            self.n_lines += len(lines)
            yield first, rows
            del rows  # the caller's copy is all that may outlive the batch
        self.wall_s = perf_counter() - t0
        self.cpu_s = process_time() - c0
        self.n_bytes = end - start


@dataclass
class RasChunk(ParsedRange):
    """One parsed RAS chunk, in chunk-local coordinates.

    ``cand`` holds the field-valid rows that still await the merge-time
    duplicate/ordering verdict. No candidate ships its text: the merge
    reads the line of one it rejects back from the file.

    A FATAL-only first pass ships only its FATAL candidates in ``cand``
    and summarizes the rest: ``n_cand`` candidates, recids from
    ``first_recid`` to ``last_recid`` and times from ``first_time`` to
    ``max_time``, all in order when ``ordered`` is set. The summary is a
    field because a pool worker cannot set state in the parent. A chunk
    whose candidates fall out of order stops there, ``ordered`` unset.
    A second pass (``ChunkTask.every_row``) ships every candidate's
    line, recid and time, and cells for the FATAL ones (``cand.kept``);
    a full read ships every candidate's cells. Neither sets ``ordered``.
    """

    cand: RasRows | None = None
    ordered: bool = False
    n_cand: int = 0
    first_recid: int = 0
    last_recid: int = 0
    first_time: float = 0.0
    max_time: float = 0.0

    def follow(self, rows: RasRows) -> bool:
        """Add a batch's candidates *rows* to the summary if they follow
        the chunk's so far in order; otherwise unset ``ordered``."""
        recids, times = rows.recids, rows.times
        if not len(recids):
            return True
        ordered = bool(
            (recids[1:] > recids[:-1]).all() and (times[1:] >= times[:-1]).all()
        )
        if ordered and self.n_cand:
            ordered = recids[0] > self.last_recid and times[0] >= self.max_time
        if not ordered:
            self.ordered = False
            return False
        if not self.n_cand:
            self.first_recid, self.first_time = int(recids[0]), float(times[0])
        self.n_cand += len(recids)
        # times never decrease, so the last is the max
        self.last_recid, self.max_time = int(recids[-1]), float(times[-1])
        return True


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


def parse_ras_chunk(task: tuple) -> RasChunk:
    """Parse one RAS data chunk, a :class:`ChunkTask` or a plain
    ``(path, start, end, fatal_only)`` tuple.

    The range is classified one :func:`iter_line_batches` batch at a
    time, all through one string table, so a worker holds one batch's
    lines and split cells at a time, however long its range. With
    *fatal_only* cells are built for the FATAL candidates only, and a
    first pass keeps only those candidates while the batches stay in
    order (see :class:`RasChunk`).
    """
    from repro.logs.stream import RasRows, parse_ras_block

    path, start, end, fatal_only, every_row = ChunkTask(*task)
    table: dict = {}  # one string table for the whole chunk
    chunk = RasChunk(ordered=fatal_only and not every_row)
    parts = []
    for first, rows in chunk.parse(
        path, start, end, lambda lines: parse_ras_block(lines, table, fatal_only)
    ):
        rows.lines += first
        if chunk.ordered:
            if not chunk.follow(rows):
                break  # the reader parses the file again
            rows = rows.celled()
        parts.append(rows)
    chunk.cand = RasRows.concat(parts)
    return chunk
