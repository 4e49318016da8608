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
:func:`read_delimited` to a per-line validating path that classifies
structural damage (blank/truncated/garbled/encoding) and typed-cell
failures into the defect taxonomy: strict policies raise an
:class:`~repro.logs.quarantine.IngestError` with the line number, while
quarantine/skip policies divert bad rows and keep parsing.
"""

from __future__ import annotations

import io as _io
import math
import re
from pathlib import Path
from typing import IO

import numpy as np

from repro.frame.column import shared_strings
from repro.frame.frame import Frame

if False:  # import-time cycle guard: quarantine lives above frame
    from repro.logs.quarantine import IngestPolicy, QuarantineReport

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


def read_delimited(
    source: str | Path | IO[str],
    sep: str = "|",
    policy: "IngestPolicy | str | None" = None,
    report: "QuarantineReport | None" = None,
    workers: int = 1,
) -> Frame:
    """Read a frame written by :func:`write_delimited`.

    With *policy* ``None`` (the default) any malformed line raises a
    plain :class:`ValueError` — the legacy fast path. Passing a policy
    (or a mode string ``"strict"``/``"quarantine"``/``"skip"``) enables
    per-line defect classification; bad rows are routed through the
    policy and, for non-strict modes, tallied into *report*.

    *workers* > 1 (or 0 for one per CPU) parses a validating file
    source in parallel byte-range chunks with bit-identical results;
    stream sources and the legacy path always read serially.
    """
    from repro.logs.quarantine import (
        coerce_policy,
        finish_ingest,
        handle_bad_record,
        structural_defect,
        typed_cell_defect,
    )

    validating = policy is not None
    pol = coerce_policy(policy)
    if validating and isinstance(source, (str, Path)):
        from repro.parallel.ingest import parallel_read_delimited, resolve_workers

        if resolve_workers(workers) > 1:
            return parallel_read_delimited(
                source, sep=sep, policy=pol, report=report, workers=workers
            )
    fh, close = _open_for_read(source, tolerant=validating)
    if report is None:
        report = pol.new_report(str(source) if close else "")
    try:
        header_line = fh.readline().rstrip("\r\n").lstrip(_BOM)
        if not header_line:
            return Frame()
        names, tags = _parse_header(header_line, sep)
        raw_cols: list[list[str]] = [[] for _ in names]
        if not validating:
            for line in fh:
                parts = line.rstrip("\r\n").split(sep)
                if len(parts) != len(names):
                    raise ValueError(
                        f"row has {len(parts)} cells, expected {len(names)}: {line!r}"
                    )
                for c, v in zip(raw_cols, parts):
                    c.append(v)
        else:
            for line_no, line in enumerate(fh, start=2):
                text = line.rstrip("\r\n")
                report.total_rows += 1
                parts = text.split(sep)
                defect = structural_defect(text, len(parts), len(names))
                if defect is None:
                    for v, tag in zip(parts, tags):
                        defect = typed_cell_defect(v, tag)
                        if defect is not None:
                            break
                if defect is not None:
                    handle_bad_record(pol, report, line_no, defect, text)
                    continue
                for c, v in zip(raw_cols, parts):
                    c.append(v)
            finish_ingest(pol, report)
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
