"""Delimited text io for frames.

The RAS and job logs are serialized as header-bearing delimited text
(``|`` by default, mirroring DB2 export style). Types are recovered on
read from a dtype tag appended to each header cell, so round-trips are
loss-free for int/float/str/bool columns.

String cells are escaped on write (``\\`` → ``\\\\``, separator →
``\\p``, newline → ``\\n``, carriage return → ``\\r``) and unescaped on
read, so messages containing the delimiter or embedded newlines
round-trip losslessly.

This module writes text and classifies it; it opens no file for
reading. A written log becomes lines in one place, the byte-range batch
reader of :mod:`repro.parallel` (a UTF-8 BOM, CRLF and lone-CR line
endings and encoding damage handled there). Every validating reader of
typed delimited text — the job-log reader
(:func:`repro.parallel.ingest.read_job_frame`) and the live job feed
(:mod:`repro.stream.source`) — classifies lines with one block kernel,
:func:`parse_delimited_block`, which sorts structural damage
(blank/truncated/garbled/encoding) and typed-cell failures into the
defect taxonomy of :mod:`repro.logs.quarantine`.
"""

from __future__ import annotations

import io as _io
import math
import re
from itertools import repeat
from pathlib import Path
from typing import IO, Sequence

import numpy as np

from repro.frame.column import shared_strings
from repro.frame.frame import Frame

if False:  # import-time cycle guard: quarantine lives above frame
    from repro.logs.quarantine import DefectClass

_TAGS = {"i": "int", "u": "int", "f": "float", "b": "bool", "O": "str", "U": "str"}
#: typed column from a list of cells, by header tag (``str`` columns
#: are built with :func:`~repro.frame.column.shared_strings`)
_PARSERS = {
    "int": lambda col: np.array([int(v) for v in col], dtype=np.int64),
    "float": lambda col: np.array([float(v) for v in col], dtype=np.float64),
    "bool": lambda col: np.array([v == "True" for v in col], dtype=bool),
}
#: the cells a validating read accepts in a ``bool`` column
_BOOL_CELLS = frozenset({"True", "False"})

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


def parse_delimited_block(
    lines: list[str],
    names: Sequence[str],
    tags: Sequence[str],
    sep: str = "|",
    tables: Sequence[dict] | None = None,
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
    String cells are unescaped and shared per column: through
    ``tables[j]`` for column *j* when *tables* is given — a reader
    passes the same tables to every batch of a file — and a fresh table
    per column otherwise.
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
            if tag != "str":
                arrays[j] = _PARSERS[tag](col)
                continue
            if "\\" in text:
                col = [unescape_cell(v, sep) for v in col]
            table = None if tables is None else tables[j]
            arrays[j] = shared_strings(col, table)

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


def to_string(frame: Frame, sep: str = "|") -> str:
    """Serialize to an in-memory string (the text :func:`write_delimited`
    writes to a file)."""
    buf = _io.StringIO()
    write_delimited(frame, buf, sep=sep)
    return buf.getvalue()

