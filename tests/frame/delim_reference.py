"""Line-at-a-time reference reader for typed delimited text.

The job-log reader reads its file in byte-range batches and classifies
each batch with one block kernel
(:func:`repro.frame.io.parse_delimited_block`), routing the defects
through the policy afterwards. This is the per-line loop it replaced,
kept as the oracle the block path is compared against: the file is
read in text mode (``utf-8-sig`` absorbs a BOM, ``errors="replace"``
keeps encoding damage line-oriented, universal newlines end a line at
``\r\n``, ``\n`` or a lone ``\r``), every line is split, checked
with ``structural_defect`` and then each cell with
``typed_cell_defect``, and handed to the policy the moment it is found
bad. It reads any typed header, so it is also the generic reader the
frame round-trip tests use.

It carries its own copies of the header parse and the cell parsers, so
it shares no reading code with the package beyond the defect taxonomy
and :func:`~repro.frame.io.unescape_cell`.
"""

from __future__ import annotations

from pathlib import Path
from typing import IO

import numpy as np

from repro.frame import Frame
from repro.frame.column import shared_strings
from repro.frame.io import unescape_cell
from repro.logs.job import JobLog
from repro.logs.quarantine import (
    IngestPolicy,
    QuarantineReport,
    coerce_policy,
    finish_ingest,
    handle_bad_record,
    structural_defect,
    typed_cell_defect,
)

_BOM = "\ufeff"
#: typed column from a list of cells, by header tag
_PARSERS = {
    "int": lambda col: np.array([int(v) for v in col], dtype=np.int64),
    "float": lambda col: np.array([float(v) for v in col], dtype=np.float64),
    "bool": lambda col: np.array([v == "True" for v in col], dtype=bool),
    "str": shared_strings,
}


def _open_for_read(source: str | Path | IO[str]) -> tuple[IO[str], bool]:
    if isinstance(source, (str, Path)):
        return open(source, "r", encoding="utf-8-sig", errors="replace"), True
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


def read_delimited_by_line(
    source: str | Path | IO[str],
    sep: str = "|",
    policy: IngestPolicy | str = "strict",
    report: QuarantineReport | None = None,
) -> Frame:
    """A typed delimited file or text stream read one line at a time.

    A blank first line gives an empty ``Frame()``; a header cell with an
    unknown tag raises ``ValueError``.
    """
    pol = coerce_policy(policy)
    fh, close = _open_for_read(source)
    if report is None:
        report = pol.new_report(str(source) if close else "")
    try:
        header_line = fh.readline().rstrip("\r\n").lstrip(_BOM)
        if not header_line:
            return Frame()
        names, tags = _parse_header(header_line, sep)
        raw_cols: list[list[str]] = [[] for _ in names]
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


def read_job_log_by_line(
    path: str | Path, policy: IngestPolicy | str = "strict"
) -> JobLog:
    """A job log read through :func:`read_delimited_by_line`.

    Carries its report on ``quarantine`` under every policy.
    """
    pol = coerce_policy(policy)
    report = pol.new_report(str(path))
    log = JobLog(read_delimited_by_line(path, policy=pol, report=report))
    log.quarantine = report
    return log
