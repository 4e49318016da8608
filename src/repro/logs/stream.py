"""The RAS text kernel: one block classifier behind every RAS reader.

A real 237-day RAS export runs to gigabytes, and the co-analysis reads
only its FATAL records and its time span. There is one reader of a
written RAS file, :func:`repro.parallel.ingest.parallel_read_ras_frame`
(reached through :func:`repro.logs.textio.read_ras_log`): it splits the
data region into line-aligned byte ranges and parses them one batch at
a time, in the calling process when there is one range (``workers=1``)
and in a process pool otherwise. The live feed parser
(:mod:`repro.stream.source`) is the only other reader of RAS text.
Both classify lines with one block kernel, :func:`parse_ras_block`:
column-at-a-time checks for the common case, and
:func:`classify_ras_fields`, the one definition of the per-line
taxonomy, for every line a column check flags. With ``fatal_only`` the
kernel still checks every line but builds cells only for the FATAL
rows.

A FATAL-only read (``read_ras_log(..., fatal_only=True)``, what
``analyze`` runs) holds one :data:`_BATCH_CHARS` batch's lines and
split cells at a time, plus the FATAL rows: while every accepted
candidate follows the one before it (recids strictly increasing, no
time below the running max) no candidate can be a duplicate or out of
order, so each chunk keeps only its FATAL rows and a summary of the
rest. The first candidate that breaks that order makes the reader
parse the file a second time, keeping every candidate's line, recid
and time for the cross-record replay (:mod:`repro.parallel.workers`).

Ingestion is policy-driven (:mod:`repro.logs.quarantine`): every data
line passes structural checks (encoding damage, blank, truncated,
garbled delimiters), field checks (recid, BG/P timestamp, severity /
component / ERRCODE vocabulary), and cross-record checks (duplicate
recids, out-of-order event times), which
:func:`repro.parallel.merge.replay_cross_record` replays once over a
file's candidate rows. Under the default ``strict`` policy the first
defect raises an :class:`~repro.logs.quarantine.IngestError` carrying
the line number and defect class; under ``quarantine`` / ``skip`` bad
lines are diverted into a
:class:`~repro.logs.quarantine.QuarantineReport` and parsing continues.

The file reader takes EOF as the end of the data, so a final line that
lacks its newline is classified like any other. A *growing* file's
unterminated final line is the tailer's to hold as pending
(:class:`repro.stream.source.LogTailer`).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from repro.frame import Frame
from repro.frame.column import shared_strings
from repro.frame.io import unescape_cell
from repro.logs.quarantine import (
    REPLACEMENT_CHAR,
    DefectClass,
    structural_defect,
)
from repro.logs.ras import COMPONENTS, RAS_COLUMNS, SEVERITIES
from repro.logs.textio import _DISK_COLUMNS, parse_bgp_time

_SEVERITY_SET = frozenset(SEVERITIES)
#: the one severity a ``fatal_only`` read keeps cells for
_FATAL = "FATAL"
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
#: disk-layout indices of the frame's string columns, in order: every
#: field but the recid and the timestamp, which are kept typed only
_CELL_COLUMNS = tuple(
    j for j in range(len(_DISK_COLUMNS)) if j not in (_RECID_IDX, _TIME_IDX)
)

_SEP = "|"
_NUM_SEPS = len(_DISK_COLUMNS) - 1

#: bytes per batch a log reader classifies at once, the RAS chunk parse
#: and the job read alike (:func:`repro.parallel.workers.iter_line_batches`,
#: extended to the next line end). A batch's lines and split cells take
#: about ten times its size, and that is most of what a FATAL-only read
#: holds beyond its FATAL rows; at 256 KiB the column work is still
#: amortized over ~1,700 lines, and the parse runs as fast as with 1 MiB
#: batches
_BATCH_CHARS = 1 << 18

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


@dataclass(slots=True)
class RasRows:
    """Field-valid RAS rows in line order: the block kernel's candidates.

    ``recids`` and ``times`` are the typed recid and event-time columns,
    ``lines`` gives each row's 0-based index in the block of lines it
    was parsed from, and ``cells`` holds the eight frame string columns
    (every disk-layout field but the recid and the timestamp, in disk
    order) as object arrays of unescaped text, one ``str`` per distinct
    value per string table (see :func:`parse_ras_block`). The recid and
    timestamp text is never kept: nothing reads it once it is typed.

    A ``fatal_only`` parse sets ``kept``, the mask of the FATAL rows:
    every row has its line, recid and time, for the cross-record checks,
    but the cell columns hold only the kept rows, and :meth:`to_frame`
    gives only those. ``kept`` is ``None`` when every row has cells.
    """

    lines: np.ndarray  # int64
    recids: np.ndarray  # int64
    times: np.ndarray  # float64 epoch seconds
    cells: list[np.ndarray]
    kept: np.ndarray | None = None  # bool, one per row

    def __len__(self) -> int:
        return len(self.lines)

    def celled(self) -> "RasRows":
        """The rows that have cells (every row when ``kept`` is None)."""
        if self.kept is None:
            return self
        k = self.kept
        return RasRows(self.lines[k], self.recids[k], self.times[k], self.cells)

    def take(self, index) -> "RasRows":
        """The rows selected by *index* (a mask, slice or index array)."""
        at, kept = index, None
        if self.kept is not None:
            kept = self.kept[index]
            # each row's position in the cell columns, for the kept rows
            at = (np.cumsum(self.kept) - 1)[index][kept]
        return RasRows(
            self.lines[index],
            self.recids[index],
            self.times[index],
            [col[at] for col in self.cells],
            kept,
        )

    @staticmethod
    def concat(parts: list["RasRows"]) -> "RasRows":
        """Stack row sets in order (an empty list gives typed empty rows).

        The parts are all projected (``kept`` set) or all not.
        """
        if len(parts) == 1:
            return parts[0]
        if not parts:
            return RasRows(
                np.empty(0, dtype=np.int64),
                np.empty(0, dtype=np.int64),
                np.empty(0, dtype=np.float64),
                [np.empty(0, dtype=object) for _ in _CELL_COLUMNS],
            )
        return RasRows(
            np.concatenate([p.lines for p in parts]),
            np.concatenate([p.recids for p in parts]),
            np.concatenate([p.times for p in parts]),
            [
                np.concatenate([p.cells[k] for p in parts])
                for k in range(len(_CELL_COLUMNS))
            ],
            None if parts[0].kept is None
            else np.concatenate([p.kept for p in parts]),
        )

    def to_frame(self) -> Frame:
        """The rows that have cells as an in-memory RAS frame (Table II)."""
        rows = self.celled()
        data = {
            _DISK_COLUMNS[j]: col for j, col in zip(_CELL_COLUMNS, rows.cells)
        }
        data["recid"] = rows.recids
        data["event_time"] = rows.times
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
    lines: list[str], table: dict | None = None, fatal_only: bool = False
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

    The accepted rows' eight string columns (``RasRows.cells``) are
    built with :func:`~repro.frame.column.shared_strings`, so equal
    cells are one object: through *table* when given — the chunk reader
    passes one table to every batch of a chunk — and a fresh table
    otherwise.

    With *fatal_only* every line is checked just the same, and every
    accepted row keeps its line index, recid and time, but cells are
    built only for the FATAL rows (``RasRows.kept``).
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

    good = ~flagged
    celled = good
    if fatal_only:
        celled = good & np.fromiter(
            map(_FATAL.__eq__, cols[_SEVERITY_IDX]), bool, len(keep)
        )
    # the recid and timestamp text is typed now; only string cells stay
    cols = [cols[j] for j in _CELL_COLUMNS]
    if not celled.all():
        # cells of the other rows are never built, and no rejected value
        # joins a table that lives as long as the chunk's read
        index = np.flatnonzero(celled).tolist()
        cols = [[col[i] for i in index] for col in cols]
    if not good.all():
        keep, recids, times = keep[good], recids[good], times[good]
    rows = RasRows(
        keep, recids, times, [shared_strings(col, table) for col in cols],
        celled[good] if fatal_only else None,
    )
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
        slow_kept = None
        if fatal_only:
            slow_kept = np.array(
                [c[_SEVERITY_IDX] == _FATAL for c in slow_cells], dtype=bool
            )
            slow_cells = [c for c, k in zip(slow_cells, slow_kept) if k]
        rows = RasRows.concat([
            rows,
            RasRows(
                np.array(index, dtype=np.int64),
                np.array(slow_recids, dtype=np.int64),
                np.array(slow_times, dtype=np.float64),
                [
                    shared_strings([c[j] for c in slow_cells], table)
                    for j in _CELL_COLUMNS
                ],
                slow_kept,
            ),
        ])
        rows = rows.take(np.argsort(rows.lines, kind="stable"))
    return defects, rows


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
