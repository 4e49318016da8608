"""Delimited text io for frames.

The RAS and job logs are serialized as header-bearing delimited text
(``|`` by default, mirroring DB2 export style). Types are recovered on
read from a dtype tag appended to each header cell, so round-trips are
loss-free for int/float/str/bool columns.

String cells are escaped on write (``\\`` → ``\\\\``, separator →
``\\p``, newline → ``\\n``, carriage return → ``\\r``) and unescaped on
read, so messages containing the delimiter or embedded newlines
round-trip losslessly. Readers tolerate a UTF-8 BOM and CRLF line
endings, both of which real exports grown on other platforms carry.

Passing an :class:`repro.logs.quarantine.IngestPolicy` switches
:func:`read_delimited` to a validating path that classifies structural
damage (blank/truncated/garbled/encoding) and typed-cell failures into
the defect taxonomy: strict policies raise an
:class:`~repro.logs.quarantine.IngestError` with the line number, while
quarantine/skip policies divert bad rows and keep parsing. Every
validating reader of delimited text — this one and the live job feed
(:mod:`repro.stream.source`) — classifies lines with one block kernel,
:func:`parse_delimited_block`.
"""

from __future__ import annotations

import io as _io
import math
import re
from itertools import repeat
from pathlib import Path
from typing import IO

import numpy as np

from repro.frame.column import shared_strings
from repro.frame.frame import Frame

if False:  # import-time cycle guard: quarantine lives above frame
    from repro.logs.quarantine import DefectClass, IngestPolicy, QuarantineReport

_TAGS = {"i": "int", "u": "int", "f": "float", "b": "bool", "O": "str", "U": "str"}
#: typed column from a list of cells, by header tag; a ``str`` column
#: holds one object per distinct value, shared by its equal cells
#: (a fresh table per call, so no reader keeps one that keeps growing)
_PARSERS = {
    "int": lambda col: np.array([int(v) for v in col], dtype=np.int64),
    "float": lambda col: np.array([float(v) for v in col], dtype=np.float64),
    "bool": lambda col: np.array([v == "True" for v in col], dtype=bool),
    "str": shared_strings,
}
#: the cells a validating read accepts in a ``bool`` column
_BOOL_CELLS = frozenset({"True", "False"})

_BOM = "\ufeff"
_ESCAPE_RE = re.compile(r"\\(.)")


def format_float(v: float) -> str:
    """Serialize one float cell so the round-trip is bit-lossless.

    ``repr`` is exact for every finite value (shortest round-tripping
    decimal, ``-0.0`` included) and for infinities, but collapses every
    NaN to the string ``'nan'`` \u2014 losing the sign bit, which matters to
    the bit-pattern equivalence checks downstream. CPython's float
    parser accepts ``'-nan'`` and restores the sign, so negative NaNs
    are spelled out explicitly.
    """
    v = float(v)
    if math.isnan(v):
        return "-nan" if math.copysign(1.0, v) < 0 else "nan"
    return repr(v)


def escape_cell(text: str, sep: str = "|") -> str:
    """Escape a string cell so it carries no separator or line break."""
    if "\\" not in text and sep not in text and "\n" not in text and "\r" not in text:
        return text
    return (
        text.replace("\\", "\\\\")
        .replace(sep, "\\p")
        .replace("\n", "\\n")
        .replace("\r", "\\r")
    )


def unescape_cell(text: str, sep: str = "|") -> str:
    """Invert :func:`escape_cell` (unknown escapes pass through)."""
    if "\\" not in text:
        return text
    mapping = {"\\": "\\", "p": sep, "n": "\n", "r": "\r"}
    return _ESCAPE_RE.sub(
        lambda m: mapping.get(m.group(1), m.group(0)), text
    )


def write_delimited(frame: Frame, target: str | Path | IO[str], sep: str = "|") -> None:
    """Write *frame* as delimited text with a typed header row.

    String cells containing the separator, line breaks, or backslashes
    are escaped (see module docstring) so write→read is lossless.
    """
    close = False
    if isinstance(target, (str, Path)):
        fh: IO[str] = open(target, "w", encoding="utf-8")
        close = True
    else:
        fh = target
    try:
        header = []
        for name in frame.columns:
            kind = frame.col(name).dtype.kind
            tag = _TAGS.get(kind)
            if tag is None:
                raise TypeError(f"column {name!r} has unsupported kind {kind!r}")
            header.append(f"{name}:{tag}")
        fh.write(sep.join(header) + "\n")
        cols = [frame.col(name) for name in frame.columns]
        str_cols = []
        for col in cols:
            if col.dtype.kind in "OU":
                str_cols.append(
                    np.array([escape_cell(v, sep) for v in col], dtype=object)
                )
            elif col.dtype.kind == "f":
                str_cols.append(np.array([format_float(v) for v in col], dtype=object))
            else:
                str_cols.append(col.astype(str).astype(object))
        # join whole column batches instead of formatting row by row:
        # elementwise object-array concatenation pre-joins the columns
        # and one "\n".join turns a batch into a single write call
        n = frame.num_rows
        if n and str_cols:
            batch = 65536
            for start in range(0, n, batch):
                rows = str_cols[0][start : start + batch]
                for col in str_cols[1:]:
                    rows = rows + sep + col[start : start + batch]
                fh.write("\n".join(rows.tolist()))
                fh.write("\n")
    finally:
        if close:
            fh.close()


def _open_for_read(source: str | Path | IO[str], tolerant: bool) -> tuple[IO[str], bool]:
    if isinstance(source, (str, Path)):
        # utf-8-sig absorbs a BOM if present; errors="replace" keeps the
        # tolerant path line-oriented so encoding damage is classified
        # per record instead of killing the whole read
        return (
            open(
                source,
                "r",
                encoding="utf-8-sig",
                errors="replace" if tolerant else "strict",
            ),
            True,
        )
    return source, False


def _parse_header(header_line: str, sep: str) -> tuple[list[str], list[str]]:
    names, tags = [], []
    for cell in header_line.split(sep):
        name, _, tag = cell.rpartition(":")
        if tag not in _PARSERS:
            raise ValueError(f"bad header cell {cell!r}")
        names.append(name)
        tags.append(tag)
    return names, tags


def parse_delimited_block(
    lines: list[str],
    names: list[str] | tuple[str, ...],
    tags: list[str] | tuple[str, ...],
    sep: str = "|",
) -> tuple[list[tuple[int, DefectClass]], list[np.ndarray]]:
    """Classify and type a block of delimited data lines.

    The result is the defect taxonomy applied line by line:
    ``(index, defect)`` for every line that
    :func:`~repro.logs.quarantine.structural_defect` or
    :func:`~repro.logs.quarantine.typed_cell_defect` rejects, in line
    order, and one typed array per column (header order) holding the
    lines it accepts. The checks run a column at a time: lines with the
    header's separator count are split at once, and each typed column is
    converted whole, with a per-cell check only when a conversion fails.
    String cells are unescaped and shared per column (:data:`_PARSERS`).
    """
    from repro.logs.quarantine import (
        REPLACEMENT_CHAR,
        DefectClass,
        structural_defect,
        typed_cell_defect,
    )

    n, width = len(lines), len(names)
    counts = np.fromiter(map(str.count, lines, repeat(sep, n)), np.int64, n)
    keep = np.flatnonzero(counts == width - 1)
    kept = lines if len(keep) == n else [lines[i] for i in keep.tolist()]
    text = sep.join(kept)
    if REPLACEMENT_CHAR in text or width == 1 or not sep.strip():
        # the structural checks a separator count cannot stand in for:
        # encoding damage, and blank lines whose cells hold no separator
        # or only a blank one
        fine = np.fromiter(
            (structural_defect(v, width, width) is None for v in kept),
            bool,
            len(kept),
        )
        keep = keep[fine]
        kept = [lines[i] for i in keep.tolist()]
        text = sep.join(kept)
    cells = text.split(sep) if kept else []
    cols = [cells[j::width] for j in range(width)]
    del cells

    m = len(keep)
    arrays: list[np.ndarray | None] = [None] * width
    flagged = np.zeros(m, dtype=bool)
    for j, tag in enumerate(tags):
        if tag == "str":
            continue
        try:
            if tag == "bool" and not _BOOL_CELLS.issuperset(cols[j]):
                raise ValueError("not a bool")
            arrays[j] = _PARSERS[tag](cols[j])
        except ValueError:
            flagged |= np.fromiter(
                (typed_cell_defect(v, tag) is not None for v in cols[j]),
                bool,
                m,
            )
    typed_bad = keep[flagged]
    if len(typed_bad):
        good = np.flatnonzero(~flagged)
        index = good.tolist()
        for j, array in enumerate(arrays):
            if array is None:
                cols[j] = [cols[j][i] for i in index]
            else:
                arrays[j] = array[good]
        keep = keep[good]
    for j, tag in enumerate(tags):
        if arrays[j] is None:
            col = cols[j]
            if tag == "str" and "\\" in text:
                col = [unescape_cell(v, sep) for v in col]
            arrays[j] = _PARSERS[tag](col)

    rejected = np.ones(n, dtype=bool)
    rejected[keep] = False
    rejected[typed_bad] = False
    defects = [
        (i, structural_defect(lines[i], int(counts[i]) + 1, width))
        for i in np.flatnonzero(rejected).tolist()
    ]
    if len(typed_bad):
        defects += [(i, DefectClass.BAD_FIELD) for i in typed_bad.tolist()]
        defects.sort(key=lambda item: item[0])
    return defects, arrays


def read_delimited(
    source: str | Path | IO[str],
    sep: str = "|",
    policy: "IngestPolicy | str | None" = None,
    report: "QuarantineReport | None" = None,
) -> Frame:
    """Read a frame written by :func:`write_delimited`.

    With *policy* ``None`` (the default) any malformed line raises a
    plain :class:`ValueError` — the legacy path, a lossless round-trip
    for any frame. Passing a policy (or a mode string
    ``"strict"``/``"quarantine"``/``"skip"``) classifies every line with
    :func:`parse_delimited_block`; bad rows are routed through the
    policy in line order and, for non-strict modes, tallied into
    *report*.
    """
    from repro.logs.quarantine import coerce_policy, replay_defects

    validating = policy is not None
    pol = coerce_policy(policy)
    fh, close = _open_for_read(source, tolerant=validating)
    if report is None:
        report = pol.new_report(str(source) if close else "")
    try:
        header_line = fh.readline().rstrip("\r\n").lstrip(_BOM)
        if not header_line:
            return Frame()
        names, tags = _parse_header(header_line, sep)
        if validating:
            lines = [line.rstrip("\r\n") for line in fh]
            defects, arrays = parse_delimited_block(lines, names, tags, sep)
            replay_defects(
                pol,
                report,
                [(i + 2, defect, lines[i]) for i, defect in defects],
                len(lines),
            )
            return Frame(dict(zip(names, arrays)))
        raw_cols: list[list[str]] = [[] for _ in names]
        for line in fh:
            parts = line.rstrip("\r\n").split(sep)
            if len(parts) != len(names):
                raise ValueError(
                    f"row has {len(parts)} cells, expected {len(names)}: {line!r}"
                )
            for c, v in zip(raw_cols, parts):
                c.append(v)
        data = {}
        for name, tag, col in zip(names, tags, raw_cols):
            if tag == "str":
                col = [unescape_cell(v, sep) for v in col]
            data[name] = _PARSERS[tag](col)
        return Frame(data)
    finally:
        if close:
            fh.close()


def to_string(frame: Frame, sep: str = "|") -> str:
    """Serialize to an in-memory string (round-trips via from_string)."""
    buf = _io.StringIO()
    write_delimited(frame, buf, sep=sep)
    return buf.getvalue()


def from_string(
    text: str,
    sep: str = "|",
    policy: IngestPolicy | str | None = None,
    report: QuarantineReport | None = None,
) -> Frame:
    """Parse a frame from :func:`to_string` output."""
    return read_delimited(_io.StringIO(text), sep=sep, policy=policy, report=report)
