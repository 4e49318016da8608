"""Text serialization for RAS and job logs.

RAS timestamps use the BG/P form seen in Table II
(``2008-04-14-15.08.12.285324``); job logs keep epoch floats the way
Cobalt does (Table III). Both logs serialize as pipe-delimited text via
:mod:`repro.frame.io`, with RAS event times converted to the BG/P form
on disk and back to epoch seconds in memory. Both are read back by the
byte-range batch readers of :mod:`repro.parallel.ingest`.
"""

from __future__ import annotations

import os
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from repro.frame import Frame
from repro.frame.io import to_string, write_delimited
from repro.logs.job import JOB_COLUMNS, JobLog
from repro.logs.quarantine import IngestPolicy, coerce_policy
from repro.logs.ras import RasLog

_BGP_FMT = "%Y-%m-%d-%H.%M.%S.%f"

#: the on-disk RAS layout: Table II's fields in order, the event time
#: as BG/P text (the readers check a header against this)
_DISK_COLUMNS = (
    "recid", "msg_id", "component", "subcomponent", "errcode",
    "severity", "event_time_bgp", "location", "serialnumber", "message",
)


def format_bgp_time(epoch_seconds: float) -> str:
    """Render epoch seconds as a BG/P RAS timestamp (UTC)."""
    dt = datetime.fromtimestamp(float(epoch_seconds), tz=timezone.utc)
    return dt.strftime(_BGP_FMT)


def parse_bgp_time(text: str) -> float:
    """Parse a BG/P RAS timestamp back to epoch seconds (UTC)."""
    dt = datetime.strptime(text, _BGP_FMT).replace(tzinfo=timezone.utc)
    return dt.timestamp()


def check_ras_header(header: str) -> None:
    """Raise ``ValueError`` unless *header* names :data:`_DISK_COLUMNS`."""
    names = [cell.rpartition(":")[0] for cell in header.split("|")]
    if tuple(names) != _DISK_COLUMNS:
        raise ValueError(f"unexpected RAS header {names}")


def ras_disk_frame(frame: Frame) -> Frame:
    """RAS rows in the on-disk layout: :data:`_DISK_COLUMNS`, BG/P times."""
    return frame.with_column(
        "event_time_bgp",
        np.array([format_bgp_time(t) for t in frame["event_time"]], dtype=object),
    ).drop("event_time").select(list(_DISK_COLUMNS))


def write_ras_log(log: RasLog, path: str | Path) -> None:
    """Write a RAS log with human-readable BG/P timestamps."""
    write_delimited(ras_disk_frame(log.frame), path)


def append_log_rows(frame: Frame, path: str | Path) -> None:
    """Append *frame*'s rows to the delimited log at *path*, fsync'd.

    A new or empty file gets the header row first; an existing one
    gets data rows only. A torn final line (a crash mid-append) is
    ended before the append, so it costs one bad line instead of
    swallowing the first appended row.
    """
    text = to_string(frame)
    with open(path, "a+b") as fh:
        size = fh.seek(0, os.SEEK_END)
        if size:
            text = text.split("\n", 1)[1]
            fh.seek(size - 1)
            if fh.read(1) != b"\n":
                text = "\n" + text
        fh.write(text.encode("utf-8"))
        fh.flush()
        os.fsync(fh.fileno())


def read_log_frame(
    path: str | Path,
    table: str,
    policy: IngestPolicy | str | None = None,
    workers: int = 1,
    cache: "ParseCache | None" = None,
    fatal_only: bool = False,
):
    """Read a ``"ras"`` / ``"job"`` log as a bare frame.

    The shared core behind :func:`read_ras_log` / :func:`read_job_log`.
    Returns ``(frame, report, cache_status)`` where *report* is the
    parse's :class:`~repro.logs.quarantine.QuarantineReport` (present
    under every policy; callers decide whether to surface it) and
    *cache_status* resolves as in :func:`read_ras_log`. *workers*
    applies to the RAS log only; the job log is read serially.
    *fatal_only* (RAS only) keeps only the FATAL rows in the frame; the
    report's ``clean_rows`` and ``clean_span`` still cover every
    accepted row. The cache keys the two reads apart. Both tables are
    read through the same byte-range batch path
    (:mod:`repro.parallel.ingest`); only the kernels differ.
    """
    if table not in ("ras", "job"):
        raise ValueError(f"unknown log table {table!r}")
    if fatal_only and table != "ras":
        raise ValueError("fatal_only applies to the RAS log only")
    pol = coerce_policy(policy)
    report = pol.new_report(str(path))

    key = None
    if cache is not None:
        from repro.parallel.cache import apply_report_state

        kind = "ras:fatal" if fatal_only else table
        key = cache.key_for(path, kind=kind, policy=pol)
        hit = cache.load(key)
        if hit is not None:
            frame, state = hit
            if state is not None:
                apply_report_state(report, state)
            return frame, report, "hit"

    if table == "ras":
        from repro.logs.ras import empty_ras_log
        from repro.parallel.ingest import parallel_read_ras_frame

        frame = parallel_read_ras_frame(
            path, policy=pol, report=report, workers=workers,
            fatal_only=fatal_only,
        )
        if not frame.num_rows:
            frame = empty_ras_log().frame
    else:
        from repro.parallel.ingest import read_job_frame

        frame = read_job_frame(path, policy=pol, report=report)

    status = None if cache is None else cache.last_status
    if key is not None:
        cache.store(key, frame, report)
    return frame, report, status


def read_ras_log(
    path: str | Path,
    policy: IngestPolicy | str | None = None,
    workers: int = 1,
    cache: "ParseCache | None" = None,
    fatal_only: bool = False,
) -> RasLog:
    """Read a RAS log written by :func:`write_ras_log`.

    *policy* selects the strictness mode (see
    :mod:`repro.logs.quarantine`); with a non-strict policy the returned
    log carries the :class:`~repro.logs.quarantine.QuarantineReport` on
    its ``quarantine`` attribute. The file is parsed as up to *workers*
    line-aligned byte-range chunks (0 = one per available CPU): one
    chunk in this process, several in a process pool, with
    bit-identical output at any count;
    *cache* consults a :class:`~repro.parallel.cache.ParseCache` first
    and stores successful parses for reruns. The ``cache_status``
    attribute of the result reports how the lookup resolved — ``"hit"``,
    ``"miss"``, ``"stale"`` (schema drift) or ``"corrupt"`` (entry
    present but unreadable, e.g. a truncated npz; re-parsed and
    re-stored) — or ``None`` when no cache is in play.

    With *fatal_only* every line is checked exactly as in the full read
    (the same defects, report and raises), but the log's frame holds
    only the FATAL rows — all the co-analysis reads of the rows. Its
    ``num_records`` and ``time_span()`` still count and span every
    accepted record, so a log with no FATAL row still windows an
    analysis over its whole span.
    """
    from repro.logs.ras import empty_ras_log

    pol = coerce_policy(policy)
    frame, report, status = read_log_frame(
        path, "ras", policy=pol, workers=workers, cache=cache,
        fatal_only=fatal_only,
    )
    if not frame.num_rows:
        frame = empty_ras_log().frame
    if fatal_only:
        log = RasLog(frame, records=report.clean_rows, span=report.clean_span)
    else:
        log = RasLog(frame)
    log.quarantine = None if pol.is_strict else report
    log.cache_status = status
    return log


def write_job_log(log: JobLog, path: str | Path) -> None:
    """Write a job log (epoch-second times, Cobalt style)."""
    write_delimited(log.frame.select(list(JOB_COLUMNS)), path)


def read_job_log(
    path: str | Path,
    policy: IngestPolicy | str | None = None,
    cache: "ParseCache | None" = None,
) -> JobLog:
    """Read a job log written by :func:`write_job_log`.

    The header must be the :data:`~repro.logs.job.JOB_SCHEMA` header
    (``ValueError`` otherwise, as for a RAS header). Job-log damage is
    structural/typed only (blank, truncated, garbled, encoding garbage,
    unparseable numeric cells); the defect taxonomy and policy semantics
    match the RAS reader's. The file is parsed in this process, one
    bounded batch at a time; *cache* behaves as in :func:`read_ras_log`.
    """
    pol = coerce_policy(policy)
    frame, report, status = read_log_frame(
        path, "job", policy=pol, cache=cache
    )
    log = JobLog(frame)
    log.quarantine = None if pol.is_strict else report
    log.cache_status = status
    return log
