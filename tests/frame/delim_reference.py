"""Line-at-a-time reference reader for typed delimited text.

The production validating reader classifies a file's data lines as one
block (:func:`repro.frame.io.parse_delimited_block`) and routes the
defects through the policy afterwards. This is the per-line loop it
replaced, kept as the oracle the block path is compared against: every
line is split, checked with ``structural_defect`` and then each cell
with ``typed_cell_defect``, and handed to the policy the moment it is
found bad.
"""

from __future__ import annotations

from pathlib import Path
from typing import IO

from repro.frame import Frame
from repro.frame.io import _BOM, _PARSERS, _open_for_read, _parse_header, unescape_cell
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


def read_delimited_by_line(
    source: str | Path | IO[str],
    sep: str = "|",
    policy: IngestPolicy | str = "strict",
    report: QuarantineReport | None = None,
) -> Frame:
    """``read_delimited(source, sep, policy, report)``, one line at a time."""
    pol = coerce_policy(policy)
    fh, close = _open_for_read(source, tolerant=True)
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
