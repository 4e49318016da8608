"""Line-at-a-time reference parsers for RAS text.

The production readers classify RAS lines a block at a time
(:func:`repro.logs.stream.parse_ras_block`) and replay the cross-record
checks over whole columns. These are the straightforward per-line loops
they replaced, kept as the oracle the block path is compared against:
every line goes through :func:`classify_ras_fields` and a
:class:`RasRowCursor`, rows are released the moment they are accepted.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterator

import numpy as np

from repro.frame import Frame, concat
from repro.logs.quarantine import (
    DefectClass,
    IngestPolicy,
    QuarantineReport,
    coerce_policy,
    finish_ingest,
    handle_bad_record,
)
from repro.logs.ras import RAS_COLUMNS, RasLog, empty_ras_log
from repro.logs.stream import _DISK_COLUMNS, classify_ras_fields
from repro.stream.source import RasFeedParser


class RasRowCursor:
    """Cross-record validation state for one pass over a RAS file."""

    __slots__ = ("seen_recids", "max_time")

    def __init__(self) -> None:
        self.seen_recids: set[int] = set()
        self.max_time = float("-inf")

    def accept(self, recid: int, event_time: float) -> None:
        self.seen_recids.add(recid)
        if event_time > self.max_time:
            self.max_time = event_time


def classify_ras_line(
    text: str, cursor: RasRowCursor, sep: str = "|"
) -> tuple[DefectClass | None, tuple[list[str], int, float] | None]:
    """Classify one data line, cross-record checks included.

    Returns ``(None, (cells, recid, event_time))`` for a clean line —
    the caller must then :meth:`RasRowCursor.accept` it — or
    ``(defect, None)`` for a bad one.
    """
    defect, parsed = classify_ras_fields(text, sep)
    if defect is not None:
        return defect, None
    cells, recid, event_time = parsed
    if recid in cursor.seen_recids:
        return DefectClass.DUPLICATE_RECID, None
    if event_time < cursor.max_time:
        return DefectClass.OUT_OF_ORDER_TIME, None
    return None, (cells, recid, event_time)


def rows_to_log(
    rows: list[list[str]], recids: list[int], times: list[float]
) -> RasLog:
    cols = list(zip(*rows))
    data = {
        "recid": np.array(recids, dtype=np.int64),
        "msg_id": np.array(cols[1], dtype=object),
        "component": np.array(cols[2], dtype=object),
        "subcomponent": np.array(cols[3], dtype=object),
        "errcode": np.array(cols[4], dtype=object),
        "severity": np.array(cols[5], dtype=object),
        "event_time": np.array(times, dtype=np.float64),
        "location": np.array(cols[7], dtype=object),
        "serialnumber": np.array(cols[8], dtype=object),
        "message": np.array(cols[9], dtype=object),
    }
    return RasLog(Frame({c: data[c] for c in RAS_COLUMNS}))


def iter_ras_chunks_by_line(
    path: str | Path,
    chunk_rows: int = 100_000,
    policy: IngestPolicy | str | None = None,
    report: QuarantineReport | None = None,
) -> Iterator[RasLog]:
    """The per-line reader: every data line in order, *chunk_rows*
    accepted rows a chunk, one typed empty chunk for an empty or
    header-only file. Its chunks concatenate to ``read_ras_log``'s
    frame, and its report and raises are that read's."""
    pol = coerce_policy(policy)
    if report is None:
        report = pol.new_report(str(path))
    with open(path, "r", encoding="utf-8-sig", errors="replace") as fh:
        header = fh.readline().rstrip("\r\n")
        if not header:
            yield empty_ras_log()
            return
        names = [cell.rpartition(":")[0] for cell in header.split("|")]
        if tuple(names) != _DISK_COLUMNS:
            raise ValueError(f"unexpected RAS header {names}")
        cursor = RasRowCursor()
        buffer: list[list[str]] = []
        recids: list[int] = []
        times: list[float] = []
        yielded = False
        for line_no, line in enumerate(fh, start=2):
            text = line.rstrip("\r\n")
            report.total_rows += 1
            defect, parsed = classify_ras_line(text, cursor)
            if defect is not None:
                handle_bad_record(pol, report, line_no, defect, text)
                continue
            cells, recid, event_time = parsed
            cursor.accept(recid, event_time)
            buffer.append(cells)
            recids.append(recid)
            times.append(event_time)
            if len(buffer) >= chunk_rows:
                report.note_clean_times(times)
                yield rows_to_log(buffer, recids, times)
                buffer, recids, times = [], [], []
                yielded = True
        report.note_clean_times(times)
        finish_ingest(pol, report)
        if buffer:
            yield rows_to_log(buffer, recids, times)
        elif not yielded:
            yield empty_ras_log()


def read_ras_log_by_line(
    path: str | Path,
    policy: IngestPolicy | str | None = None,
    fatal_only: bool = False,
) -> RasLog:
    """What ``read_ras_log`` returns, from the per-line reader.

    The report is attached under a non-strict policy; with *fatal_only*
    the frame holds the FATAL rows while the count and span cover every
    accepted row.
    """
    pol = coerce_policy(policy)
    report = pol.new_report(str(path))
    log = RasLog(concat([
        c.frame for c in iter_ras_chunks_by_line(path, policy=pol, report=report)
    ]))
    if fatal_only:
        log = RasLog(
            log.fatal().frame, records=report.clean_rows,
            span=report.clean_span,
        )
    log.quarantine = None if pol.is_strict else report
    return log


class LineRasFeedParser(RasFeedParser):
    """The feed parser with its per-line classification loop."""

    def parse(self, lines: list[str]) -> RasLog:
        rows: list[list[str]] = []
        recids: list[int] = []
        times: list[float] = []
        for text in lines:
            self.lines_seen += 1
            if self._take_header(text):
                continue
            defect, parsed = classify_ras_fields(text)
            if defect is not None:
                handle_bad_record(
                    self.policy, self.report, self.lines_seen, defect, text
                )
                continue
            cells, recid, event_time = parsed
            if self._dedup(recid):
                continue
            rows.append(cells)
            recids.append(recid)
            times.append(event_time)
        if not rows:
            return empty_ras_log()
        return rows_to_log(rows, recids, times)
