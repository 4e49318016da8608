"""Streaming access to large RAS logs.

A real 237-day RAS export runs to gigabytes; loading it whole just to
count severities or extract the FATAL subset wastes memory. These
helpers stream the pipe-delimited format written by
:func:`repro.logs.textio.write_ras_log` in bounded chunks.

Ingestion is policy-driven (:mod:`repro.logs.quarantine`): every data
line passes structural checks (encoding damage, blank, truncated,
garbled delimiters), field checks (recid, BG/P timestamp, severity /
component / ERRCODE vocabulary), and cross-record checks (duplicate
recids, out-of-order event times). Under the default ``strict`` policy
the first defect raises an :class:`~repro.logs.quarantine.IngestError`
carrying the line number and defect class; under ``quarantine`` /
``skip`` bad lines are diverted into a
:class:`~repro.logs.quarantine.QuarantineReport` and parsing continues.

Every reader of RAS text — the serial reader here, the chunk-parallel
workers (:mod:`repro.parallel.workers`) and the live feed parser
(:mod:`repro.stream.source`) — classifies lines with one block kernel,
:func:`parse_ras_block`: column-at-a-time checks for the common case,
and :func:`classify_ras_fields`, the one definition of the per-line
taxonomy, for every line a column check flags.

A *growing* file needs one extra rule: hitting EOF in the middle of a
line means the writer has not flushed the rest yet — a fragment, not a
defect. Pass a :class:`PartialTail` to :func:`iter_ras_chunks` and the
unterminated final line is held there as *pending* instead of being run
through the defect taxonomy; without one (the batch default) EOF is
taken as end-of-data and the final line is classified like any other.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path
from time import perf_counter, thread_time
from typing import Iterator

import numpy as np

from repro.frame import Frame, concat
from repro.frame.column import shared_strings
from repro.frame.io import unescape_cell
from repro.logs.quarantine import (
    REPLACEMENT_CHAR,
    DefectClass,
    IngestPolicy,
    QuarantineReport,
    coerce_policy,
    finish_ingest,
    handle_bad_record,
    structural_defect,
)
from repro.logs.ras import COMPONENTS, RAS_COLUMNS, SEVERITIES, RasLog
from repro.logs.textio import parse_bgp_time
from repro.obs.metrics import get_metrics
from repro.obs.trace import current_tracer

_DISK_COLUMNS = (
    "recid", "msg_id", "component", "subcomponent", "errcode",
    "severity", "event_time_bgp", "location", "serialnumber", "message",
)

_SEVERITY_SET = frozenset(SEVERITIES)
_COMPONENT_SET = frozenset(COMPONENTS)
#: ERRCODEs are identifier-shaped tokens (``_bgp_err_ddr_controller``,
#: ``CiodHungProxy``); anything else is vocabulary damage
_ERRCODE_RE = re.compile(r"^[A-Za-z0-9_.\-]+$")

#: disk-layout indices of the semantically validated fields
_RECID_IDX = 0
_COMPONENT_IDX = 2
_ERRCODE_IDX = 4
_SEVERITY_IDX = 5
_TIME_IDX = 6
#: disk-layout indices of the free-text fields (no semantic check)
_FREE_COLUMNS = (1, 3, 7, 8, 9)
#: disk-layout indices of the frame's string columns: every field but the
#: recid and the timestamp, whose nearly unique text is not worth sharing
_SHARED_COLUMNS = frozenset(range(len(_DISK_COLUMNS))) - {_RECID_IDX, _TIME_IDX}

_SEP = "|"
_NUM_SEPS = len(_DISK_COLUMNS) - 1

#: characters per ``readlines`` batch of the serial reader: large enough
#: to amortize the column work, small enough that a batch's split cells
#: stay a small fraction of the parsed frame
_BATCH_CHARS = 1 << 20

#: the recid column's range, and the longest all-digit recid inside it
_INT64_MIN, _INT64_MAX = -(1 << 63), (1 << 63) - 1
_MAX_RECID_DIGITS = 18

#: the BG/P stamp ``YYYY-MM-DD-HH.MM.SS.ffffff``: width, separator
#: positions and digit positions
_STAMP_WIDTH = 26
_STAMP_SEPS = tuple(zip((4, 7, 10, 13, 16, 19), b"---..."))
_STAMP_DIGITS = np.array(
    [0, 1, 2, 3, 5, 6, 8, 9, 11, 12, 14, 15, 17, 18, 20, 21, 22, 23, 24, 25]
)
#: stands in for a flagged stamp so the rest of its column stays fixed-width
_STAMP_FILLER = "1970-01-01-00.00.00.000000"
_DAYS_IN_MONTH = np.array([31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31])
#: largest microsecond count a float64 holds exactly
_EXACT_MICROS = 1 << 53


class PartialTail:
    """The unterminated final line of a growing file, held as pending.

    A tailing reader that reaches EOF mid-line must not classify the
    fragment — the bytes after EOF may already be in the writer's
    buffer. When handed to :func:`iter_ras_chunks`, the fragment lands
    here (``pending`` true, ``text`` the bytes seen so far, ``line_no``
    its 1-based position) and is excluded from both the parsed chunks
    and the quarantine report; the next poll re-reads it from the same
    byte offset once the newline arrives.
    """

    __slots__ = ("text", "line_no")

    def __init__(self) -> None:
        self.text: str | None = None
        self.line_no = 0

    @property
    def pending(self) -> bool:
        return self.text is not None

    def hold(self, text: str, line_no: int) -> None:
        self.text = text
        self.line_no = line_no
        get_metrics().counter("ingest.partial_tail").inc()

    def clear(self) -> None:
        self.text = None
        self.line_no = 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = f"line {self.line_no}" if self.pending else "empty"
        return f"PartialTail({state})"


@dataclass(slots=True)
class RasRows:
    """Field-valid RAS rows in line order: the block kernel's candidates.

    ``cells`` holds the ten disk-layout columns as object arrays of
    unescaped text; ``recids`` and ``times`` are the typed recid and
    event-time columns, and ``lines`` gives each row's 0-based index in
    the block of lines it was parsed from. The eight columns that become
    frame string columns hold one ``str`` per distinct value per string
    table (see :func:`parse_ras_block`). The recid and timestamp cells
    keep their own text, one string per row: the chunk-parallel merge
    rebuilds a rejected candidate's line from them
    (:func:`repro.parallel.merge.merge_ras_chunks`), and
    :meth:`to_frame` drops them.
    """

    lines: np.ndarray  # int64
    recids: np.ndarray  # int64
    times: np.ndarray  # float64 epoch seconds
    cells: list[np.ndarray]

    def __len__(self) -> int:
        return len(self.lines)

    def take(self, index) -> "RasRows":
        """The rows selected by *index* (a mask, slice or index array)."""
        return RasRows(
            self.lines[index],
            self.recids[index],
            self.times[index],
            [col[index] for col in self.cells],
        )

    @staticmethod
    def concat(parts: list["RasRows"]) -> "RasRows":
        """Stack row sets in order (an empty list gives typed empty rows)."""
        if len(parts) == 1:
            return parts[0]
        if not parts:
            return RasRows(
                np.empty(0, dtype=np.int64),
                np.empty(0, dtype=np.int64),
                np.empty(0, dtype=np.float64),
                [np.empty(0, dtype=object) for _ in _DISK_COLUMNS],
            )
        return RasRows(
            np.concatenate([p.lines for p in parts]),
            np.concatenate([p.recids for p in parts]),
            np.concatenate([p.times for p in parts]),
            [
                np.concatenate([p.cells[j] for p in parts])
                for j in range(len(_DISK_COLUMNS))
            ],
        )

    def to_frame(self) -> Frame:
        """The rows as an in-memory RAS frame (columns of Table II)."""
        cells = self.cells
        data = {
            "recid": self.recids,
            "msg_id": cells[1],
            "component": cells[_COMPONENT_IDX],
            "subcomponent": cells[3],
            "errcode": cells[_ERRCODE_IDX],
            "severity": cells[_SEVERITY_IDX],
            "event_time": self.times,
            "location": cells[7],
            "serialnumber": cells[8],
            "message": cells[9],
        }
        return Frame({c: data[c] for c in RAS_COLUMNS})


def classify_ras_fields(
    text: str, sep: str = "|"
) -> tuple[DefectClass | None, tuple[list[str], int, float] | None]:
    """The context-free part of RAS line classification.

    Covers every check that needs only the line itself (structure,
    typed fields, vocabulary) — everything except the cross-record
    duplicate-recid and time-order checks, which
    :func:`repro.parallel.merge.replay_cross_record` decides. This is
    the one definition of the per-line defect taxonomy:
    :func:`parse_ras_block` sends every line its column checks flag
    here.
    """
    parts = text.split(sep)
    defect = structural_defect(text, len(parts), len(_DISK_COLUMNS))
    if defect is not None:
        return defect, None
    cells = [unescape_cell(p, sep) for p in parts]
    try:
        recid = int(cells[_RECID_IDX])
    except ValueError:
        return DefectClass.BAD_FIELD, None
    if not _INT64_MIN <= recid <= _INT64_MAX:
        # the recid column is int64: a larger value cannot be stored
        return DefectClass.BAD_FIELD, None
    try:
        event_time = parse_bgp_time(cells[_TIME_IDX])
    except ValueError:
        return DefectClass.INVALID_TIMESTAMP, None
    if cells[_SEVERITY_IDX] not in _SEVERITY_SET:
        return DefectClass.UNKNOWN_SEVERITY, None
    if cells[_COMPONENT_IDX] not in _COMPONENT_SET:
        return DefectClass.UNKNOWN_COMPONENT, None
    if not _ERRCODE_RE.match(cells[_ERRCODE_IDX]):
        return DefectClass.UNKNOWN_ERRCODE, None
    return None, (cells, recid, event_time)


def parse_ras_block(
    lines: list[str], table: dict | None = None
) -> tuple[list[tuple[int, DefectClass]], RasRows]:
    """Classify a block of RAS data lines a column at a time.

    The result is :func:`classify_ras_fields` applied line by line:
    ``(index, defect)`` for every line it rejects, in line order, and
    the cells, recid and event time of every line it accepts as
    :class:`RasRows`. Cross-record checks are left to the caller.

    The fast path validates whole columns. Lines with exactly nine
    separators and no replacement character are split at once; recids
    must be 1–18 ASCII digits; timestamps must be canonical 26-character
    BG/P stamps with in-range fields, converted with exact int64
    microsecond arithmetic; each distinct severity, component and
    ERRCODE is checked once. Every line a check flags goes through
    :func:`classify_ras_fields` instead, so the fast path only ever
    accepts what that function accepts, with the same values.

    The accepted rows' string columns (all but recid and timestamp) are
    built with :func:`~repro.frame.column.shared_strings`, so equal
    cells are one object: through *table* when given — a reader passes
    one table to every block of a file — and a fresh table otherwise.
    """
    if table is None:
        table = {}
    n = len(lines)
    # nine separators also rule out a blank line
    counts = np.fromiter(map(str.count, lines, repeat(_SEP, n)), np.int64, n)
    keep = np.flatnonzero(counts == _NUM_SEPS)
    kept = lines if len(keep) == n else [lines[i] for i in keep.tolist()]
    text = _SEP.join(kept)
    if REPLACEMENT_CHAR in text:
        clean = np.fromiter(
            (REPLACEMENT_CHAR not in line for line in kept), bool, len(kept)
        )
        keep = keep[clean]
        kept = [lines[i] for i in keep.tolist()]
        text = _SEP.join(kept)
    width = len(_DISK_COLUMNS)
    cells = text.split(_SEP) if kept else []
    cols = [cells[j::width] for j in range(width)]
    del cells

    flagged, recids = _recid_column(cols[_RECID_IDX])
    bad_time, times = _stamp_column(cols[_TIME_IDX])
    flagged |= bad_time
    for j, accept in (
        (_SEVERITY_IDX, _SEVERITY_SET.__contains__),
        (_COMPONENT_IDX, _COMPONENT_SET.__contains__),
        (_ERRCODE_IDX, _ERRCODE_RE.match),
    ):
        rejected = {v for v in set(cols[j]) if not accept(v)}
        if rejected:
            flagged |= np.fromiter(
                (v in rejected for v in cols[j]), bool, len(keep)
            )
    if "\\" in text:
        # the checks above flag escaped validated cells; unescape the rest
        for k in [k for k, line in enumerate(kept) if "\\" in line]:
            for j in _FREE_COLUMNS:
                cols[j][k] = unescape_cell(cols[j][k], _SEP)

    if flagged.any():
        # drop flagged rows before sharing, so no rejected value joins
        # a table that lives as long as the file's read
        good = np.flatnonzero(~flagged)
        index = good.tolist()
        cols = [[col[i] for i in index] for col in cols]
        keep, recids, times = keep[good], recids[good], times[good]
    rows = RasRows(keep, recids, times, _cell_columns(cols, table))
    on_fast_path = np.zeros(n, dtype=bool)
    on_fast_path[rows.lines] = True
    defects: list[tuple[int, DefectClass]] = []
    slow: list[tuple[int, list[str], int, float]] = []
    for i in np.flatnonzero(~on_fast_path).tolist():
        defect, parsed = classify_ras_fields(lines[i])
        if defect is not None:
            defects.append((i, defect))
        else:
            slow.append((i, *parsed))
    if slow:
        index, slow_cells, slow_recids, slow_times = zip(*slow)
        rows = RasRows.concat([
            rows,
            RasRows(
                np.array(index, dtype=np.int64),
                np.array(slow_recids, dtype=np.int64),
                np.array(slow_times, dtype=np.float64),
                _cell_columns(list(zip(*slow_cells)), table),
            ),
        ])
        rows = rows.take(np.argsort(rows.lines, kind="stable"))
    return defects, rows


def _cell_columns(cols: list, table: dict) -> list[np.ndarray]:
    """Object arrays of the disk-layout cell columns, string columns shared."""
    return [
        shared_strings(col, table) if j in _SHARED_COLUMNS
        else np.fromiter(col, object, len(col))
        for j, col in enumerate(cols)
    ]


def _recid_column(cells: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """Recids of cells that are 1–18 ASCII digits, and a mask of the rest.

    ``int()`` also takes signs, blanks, underscores and non-ASCII
    digits; those cells are flagged for the per-line path. Flagged
    entries of the value array are placeholders.
    """
    m = len(cells)
    lengths = np.fromiter(map(len, cells), np.int64, m)
    flagged = (lengths == 0) | (lengths > _MAX_RECID_DIGITS)
    joined = "".join(cells)
    if not (joined.isascii() and joined.isdigit()):
        flagged |= np.fromiter(
            (not (v.isascii() and v.isdigit()) for v in cells), bool, m
        )
    if flagged.any():
        cells = ["0" if f else v for v, f in zip(cells, flagged.tolist())]
    return flagged, np.fromiter(map(int, cells), np.int64, m)


def _stamp_column(cells: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """Epoch seconds of canonical BG/P stamps, and a mask of the rest.

    A stamp passes only as ``YYYY-MM-DD-HH.MM.SS.ffffff`` in ASCII
    digits with a real calendar date (leap years included), hour ≤ 23
    and minute and second ≤ 59 — exactly the stamps ``strptime``
    accepts in that shape. The time is the int64 microsecond count
    from the epoch (days-from-civil) divided by 10**6, the same exact
    quotient ``datetime.timestamp()`` rounds, so the floats are
    bit-identical; stamps whose count a float64 cannot hold exactly are
    flagged instead.
    """
    m = len(cells)
    flagged = np.fromiter(map(len, cells), np.int64, m) != _STAMP_WIDTH
    joined = "".join(cells)
    if flagged.any() or not joined.isascii():
        flagged |= np.fromiter((not v.isascii() for v in cells), bool, m)
        cells = [
            _STAMP_FILLER if f else v for v, f in zip(cells, flagged.tolist())
        ]
        joined = "".join(cells)
    raw = np.frombuffer(joined.encode("ascii"), np.uint8).reshape(
        m, _STAMP_WIDTH
    )
    for pos, sep in _STAMP_SEPS:
        flagged |= raw[:, pos] != sep
    digits = raw[:, _STAMP_DIGITS] - ord("0")  # bytes below "0" wrap past 9
    flagged |= (digits > 9).any(axis=1)
    d = digits.astype(np.int64)
    year = d[:, 0:4] @ np.array([1000, 100, 10, 1])
    month = d[:, 4] * 10 + d[:, 5]
    day = d[:, 6] * 10 + d[:, 7]
    hour = d[:, 8] * 10 + d[:, 9]
    minute = d[:, 10] * 10 + d[:, 11]
    second = d[:, 12] * 10 + d[:, 13]
    micro = d[:, 14:20] @ np.array([100000, 10000, 1000, 100, 10, 1])
    leap = (year % 4 == 0) & ((year % 100 != 0) | (year % 400 == 0))
    month0 = np.clip(month, 1, 12) - 1
    month_days = _DAYS_IN_MONTH[month0] + ((month0 == 1) & leap)
    flagged |= (
        (year < 1) | (month < 1) | (month > 12) | (day < 1)
        | (day > month_days) | (hour > 23) | (minute > 59) | (second > 59)
    )
    # days from 1970-01-01 in the proleptic Gregorian calendar, counting
    # years from March so the leap day ends the year
    y = year - (month <= 2)
    era = y // 400
    year_of_era = y - era * 400
    day_of_year = (153 * ((month + 9) % 12) + 2) // 5 + day - 1
    day_of_era = (
        year_of_era * 365 + year_of_era // 4 - year_of_era // 100
        + day_of_year
    )
    days = era * 146097 + day_of_era - 719468
    micros = (
        ((days * 24 + hour) * 60 + minute) * 60 + second
    ) * 1_000_000 + micro
    flagged |= np.abs(micros) > _EXACT_MICROS
    return flagged, micros / 1e6


def iter_ras_chunks(
    path: str | Path,
    chunk_rows: int = 100_000,
    policy: IngestPolicy | str | None = None,
    report: QuarantineReport | None = None,
    partial: PartialTail | None = None,
) -> Iterator[RasLog]:
    """Yield a written RAS log file as bounded :class:`RasLog` chunks.

    An empty or header-only file yields exactly one typed empty chunk
    (matching the ``Frame.from_rows([], columns=...)`` typed-empty
    semantics) rather than crashing. A recognisable-but-wrong header
    still raises: when the schema itself cannot be trusted, no policy
    can salvage the rows beneath it.

    The file is read in batches of about :data:`_BATCH_CHARS`
    characters, each classified by :func:`parse_ras_block` and checked
    against the rows accepted before it by
    :func:`~repro.parallel.merge.replay_cross_record`. Rows and defects
    are then released in line order, so chunks, strict raises, aborts
    and the report's running ``total_rows`` match a line-by-line parse.
    Until its chunk is full, the buffer holds a batch's released rows
    as frame slices: the batch's recid and timestamp text is dropped
    with the batch. All batches share one string table, so each string
    column of every chunk holds one object per distinct value of the
    file.

    With a :class:`PartialTail`, a final line missing its newline is
    held there as pending — the tailing discipline for growing files —
    rather than classified; without one it is parsed like any other
    line, the batch reading of a file that is known to be complete.
    """
    from repro.logs.ras import empty_ras_log
    from repro.parallel.merge import RasRowCursor, replay_cross_record

    if chunk_rows <= 0:
        raise ValueError("chunk_rows must be positive")
    pol = coerce_policy(policy)
    if report is None:
        report = pol.new_report(str(path))

    if partial is not None:
        partial.clear()
    with open(path, "r", encoding="utf-8-sig", errors="replace") as fh:
        raw_header = fh.readline()
        if (
            partial is not None
            and raw_header
            and not raw_header.endswith("\n")
        ):
            partial.hold(raw_header, 1)
            yield empty_ras_log()
            return
        header = raw_header.rstrip("\r\n")
        if not header:
            yield empty_ras_log()
            return
        names = [cell.rpartition(":")[0] for cell in header.split("|")]
        if tuple(names) != _DISK_COLUMNS:
            raise ValueError(f"unexpected RAS header {names}")
        cursor = RasRowCursor()
        table: dict = {}  # one string table for the whole file
        buffer: list[Frame] = []
        buffered = 0
        yielded = False
        first_line_no = 2  # physical number of the batch's first line
        window = _ChunkWindow(report.total_rows)
        read_bytes = 0  # bytes of the data lines read so far
        while True:
            batch = fh.readlines(_BATCH_CHARS)
            if not batch:
                break
            held = None
            if partial is not None and not batch[-1].endswith("\n"):
                # EOF landed mid-line: the writer has not flushed the
                # rest yet. Hold it pending instead of classifying —
                # only the file's last line can lack its newline.
                held = batch.pop()
            # text mode has turned every line ending into "\n"
            text = "".join(batch)
            lines = text.split("\n")
            if not lines[-1]:
                lines.pop()
            # bytes read through the end of each line
            line_ends = read_bytes + np.cumsum(_line_sizes(text, lines))
            del text, batch
            defects, rows = parse_ras_block(lines, table)
            accepted, cross = replay_cross_record(
                rows.recids, rows.times, cursor
            )
            if cross:
                defects = sorted(
                    defects + [(int(rows.lines[k]), d) for k, d in cross],
                    key=lambda item: item[0],
                )
                rows = rows.take(accepted)
            base = report.total_rows
            done = 0
            # the end-of-batch sentinel flushes the rows after the last
            # defect; rows before a defect are released (and a chunk
            # they fill is yielded) before the defect is handled
            for index, defect in [*defects, (len(lines), None)]:
                stop = int(np.searchsorted(rows.lines, index))
                while done < stop:
                    take = min(stop - done, chunk_rows - buffered)
                    # a frame slice holds no recid or timestamp text, so
                    # that text goes with the batch, not with the chunk
                    buffer.append(rows.take(slice(done, done + take)).to_frame())
                    done += take
                    buffered += take
                    if buffered == chunk_rows:
                        last = int(rows.lines[done - 1])
                        report.total_rows = base + last + 1
                        window.close(report.total_rows, int(line_ends[last]))
                        yield RasLog(concat(buffer))
                        buffer, buffered, yielded = [], 0, True
                        window.open()
                if defect is None:
                    break
                report.total_rows = base + index + 1
                handle_bad_record(
                    pol, report, first_line_no + index, defect, lines[index]
                )
            report.total_rows = base + len(lines)
            first_line_no += len(lines)
            if len(lines):
                read_bytes = int(line_ends[-1])
            if held is not None:
                partial.hold(held, first_line_no)
                break
        finish_ingest(pol, report)
        if not yielded or report.total_rows > window.lines:
            # the lines after the last full chunk, even if none was kept
            window.close(report.total_rows, read_bytes)
        if buffer or not yielded:
            yield RasLog(concat(buffer)) if buffer else empty_ras_log()


def _line_sizes(text: str, lines: list[str]) -> np.ndarray:
    """UTF-8 bytes of each line of *text*, its newline included.

    Text mode has turned a ``\\r\\n`` ending into ``\\n`` and undecodable
    bytes into U+FFFD, so for such a file this is the size of what was
    decoded rather than of the raw bytes; for a UTF-8 file with ``\\n``
    endings it is exact.
    """
    n = len(lines)
    if text.isascii():
        sizes = np.fromiter(map(len, lines), np.int64, n)
    else:
        sizes = np.fromiter((len(v.encode()) for v in lines), np.int64, n)
    sizes += 1
    if n and not text.endswith("\n"):
        sizes[-1] -= 1  # the final line of a file that lacks one
    return sizes


class _ChunkWindow:
    """Telemetry of the serial reader's chunks, one window per chunk.

    Each chunk is noted like a chunk-parallel reader's
    (:func:`repro.parallel.ingest.note_parse_chunk`): the data lines and
    bytes read since the previous chunk, bad lines included, and the
    wall and CPU time spent. The window re-opens after each yield
    resumes, so consumer time between chunks never counts as parse time.
    """

    __slots__ = ("index", "lines", "n_bytes", "t0", "c0")

    def __init__(self, lines: int) -> None:
        self.index = 0
        self.lines = lines
        self.n_bytes = 0
        self.open()

    def open(self) -> None:
        self.t0, self.c0 = perf_counter(), thread_time()

    def close(self, lines: int, n_bytes: int) -> None:
        """Note the chunk that ends after *lines* lines, *n_bytes* bytes."""
        from repro.parallel.ingest import note_parse_chunk

        note_parse_chunk(
            self.index,
            lines - self.lines,
            n_bytes - self.n_bytes,
            wall_s=perf_counter() - self.t0,
            cpu_s=thread_time() - self.c0,
        )
        self.index += 1
        self.lines, self.n_bytes = lines, n_bytes


def scan_severity_counts(
    path: str | Path,
    chunk_rows: int = 100_000,
    policy: IngestPolicy | str | None = None,
    report: QuarantineReport | None = None,
) -> dict[str, int]:
    """Severity histogram of a RAS file in one bounded-memory pass."""
    counts: Counter[str] = Counter()
    for chunk in iter_ras_chunks(
        path, chunk_rows=chunk_rows, policy=policy, report=report
    ):
        counts.update(chunk.severity_counts())
    return dict(counts)


def extract_fatal(
    path: str | Path,
    chunk_rows: int = 100_000,
    policy: IngestPolicy | str | None = None,
    report: QuarantineReport | None = None,
) -> RasLog:
    """The FATAL subset of a RAS file, streamed chunk by chunk.

    The result (tens of thousands of rows for a Table I-sized log) fits
    in memory even when the raw file does not.
    """
    from repro.frame import concat

    parts = [
        chunk.fatal().frame
        for chunk in iter_ras_chunks(
            path, chunk_rows, policy=policy, report=report
        )
    ]
    parts = [p for p in parts if p.num_rows]
    if not parts:
        from repro.logs.ras import empty_ras_log

        return empty_ras_log()
    return RasLog(concat(parts))
