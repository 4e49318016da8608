"""Text serialization for RAS and job logs.

RAS timestamps use the BG/P form seen in Table II
(``2008-04-14-15.08.12.285324``); job logs keep epoch floats the way
Cobalt does (Table III). Both logs serialize as pipe-delimited text via
:mod:`repro.frame.io`, with RAS event times converted to the BG/P form
on disk and back to epoch seconds in memory.
"""

from __future__ import annotations

from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from repro.frame import Frame
from repro.frame.io import write_delimited
from repro.logs.job import JOB_COLUMNS, JobLog
from repro.logs.quarantine import IngestPolicy, coerce_policy
from repro.logs.ras import RAS_COLUMNS, RasLog

_BGP_FMT = "%Y-%m-%d-%H.%M.%S.%f"


def format_bgp_time(epoch_seconds: float) -> str:
    """Render epoch seconds as a BG/P RAS timestamp (UTC)."""
    dt = datetime.fromtimestamp(float(epoch_seconds), tz=timezone.utc)
    return dt.strftime(_BGP_FMT)


def parse_bgp_time(text: str) -> float:
    """Parse a BG/P RAS timestamp back to epoch seconds (UTC)."""
    dt = datetime.strptime(text, _BGP_FMT).replace(tzinfo=timezone.utc)
    return dt.timestamp()


def write_ras_log(log: RasLog, path: str | Path) -> None:
    """Write a RAS log with human-readable BG/P timestamps."""
    frame = log.frame
    rendered = frame.with_column(
        "event_time_bgp",
        np.array([format_bgp_time(t) for t in frame["event_time"]], dtype=object),
    ).drop("event_time")
    order = ["recid", "msg_id", "component", "subcomponent", "errcode",
             "severity", "event_time_bgp", "location", "serialnumber", "message"]
    write_delimited(rendered.select(order), path)


def read_log_frame(
    path: str | Path,
    table: str,
    policy: IngestPolicy | str | None = None,
    workers: int = 1,
    cache: "ParseCache | None" = None,
):
    """Read a ``"ras"`` / ``"job"`` log as a bare frame.

    The shared core behind :func:`read_ras_log` / :func:`read_job_log`.
    Returns ``(frame, report, cache_status)`` where *report* is the
    parse's :class:`~repro.logs.quarantine.QuarantineReport` (present
    under every policy; callers decide whether to surface it) and
    *cache_status* resolves as in :func:`read_ras_log`.
    """
    if table not in ("ras", "job"):
        raise ValueError(f"unknown log table {table!r}")
    pol = coerce_policy(policy)
    report = pol.new_report(str(path))

    key = None
    if cache is not None:
        from repro.parallel.cache import apply_report_state

        key = cache.key_for(path, kind=table, policy=pol)
        hit = cache.load(key)
        if hit is not None:
            frame, state = hit
            if state is not None:
                apply_report_state(report, state)
            return frame, report, "hit"

    if table == "ras":
        from repro.frame import concat
        from repro.logs.ras import empty_ras_log
        from repro.logs.stream import iter_ras_chunks
        from repro.parallel.ingest import (
            parallel_read_ras_frame,
            resolve_workers,
        )

        if resolve_workers(workers) > 1:
            frame = parallel_read_ras_frame(
                path, policy=pol, report=report, workers=workers
            )
        else:
            frames = [
                chunk.frame
                for chunk in iter_ras_chunks(path, policy=pol, report=report)
                if chunk.frame.num_rows
            ]
            frame = concat(frames) if frames else Frame()
        if not frame.num_rows:
            frame = empty_ras_log().frame
    else:
        from repro.parallel.ingest import parallel_read_delimited

        # one worker reads the file as one chunk, inline
        frame = parallel_read_delimited(
            path, policy=pol, report=report, workers=workers
        )

    status = None if cache is None else cache.last_status
    if key is not None:
        cache.store(key, frame, report)
    return frame, report, status


def read_ras_log(
    path: str | Path,
    policy: IngestPolicy | str | None = None,
    workers: int = 1,
    cache: "ParseCache | None" = None,
) -> RasLog:
    """Read a RAS log written by :func:`write_ras_log`.

    *policy* selects the strictness mode (see
    :mod:`repro.logs.quarantine`); with a non-strict policy the returned
    log carries the :class:`~repro.logs.quarantine.QuarantineReport` on
    its ``quarantine`` attribute. *workers* > 1 parses byte-range chunks
    in parallel (0 = one per available CPU) with bit-identical output;
    *cache* consults a :class:`~repro.parallel.cache.ParseCache` first
    and stores successful parses for reruns. The ``cache_status``
    attribute of the result reports how the lookup resolved — ``"hit"``,
    ``"miss"``, ``"stale"`` (schema drift) or ``"corrupt"`` (entry
    present but unreadable, e.g. a truncated npz; re-parsed and
    re-stored) — or ``None`` when no cache is in play.
    """
    from repro.logs.ras import empty_ras_log

    pol = coerce_policy(policy)
    frame, report, status = read_log_frame(
        path, "ras", policy=pol, workers=workers, cache=cache
    )
    log = RasLog(frame) if frame.num_rows else empty_ras_log()
    log.quarantine = None if pol.is_strict else report
    log.cache_status = status
    return log


def write_job_log(log: JobLog, path: str | Path) -> None:
    """Write a job log (epoch-second times, Cobalt style)."""
    write_delimited(log.frame.select(list(JOB_COLUMNS)), path)


def read_job_log(
    path: str | Path,
    policy: IngestPolicy | str | None = None,
    workers: int = 1,
    cache: "ParseCache | None" = None,
) -> JobLog:
    """Read a job log written by :func:`write_job_log`.

    Job-log damage is structural/typed only (blank, truncated, garbled,
    encoding garbage, unparseable numeric cells); the defect taxonomy
    and policy semantics match the RAS reader's. *workers* and *cache*
    behave as in :func:`read_ras_log`.
    """
    pol = coerce_policy(policy)
    frame, report, status = read_log_frame(
        path, "job", policy=pol, workers=workers, cache=cache
    )
    log = JobLog(frame)
    log.quarantine = None if pol.is_strict else report
    log.cache_status = status
    return log


def describe_ras_record(frame_row: dict) -> str:
    """Render one RAS row in the vertical card layout of Table II."""
    lines = [
        f"RECID        {frame_row['recid']}",
        f"MSG_ID       {frame_row['msg_id']}",
        f"COMPONENT    {frame_row['component']}",
        f"SUBCOMPONENT {frame_row['subcomponent']}",
        f"ERRCODE      {frame_row['errcode']}",
        f"SEVERITY     {frame_row['severity']}",
        f"EVENT_TIME   {format_bgp_time(frame_row['event_time'])}",
        f"LOCATION     {frame_row['location']}",
        f"SERIALNUMBER {frame_row['serialnumber']}",
        f"MESSAGE      {frame_row['message']}",
    ]
    return "\n".join(lines)


def describe_job_record(frame_row: dict) -> str:
    """Render one job row in the vertical card layout of Table III."""
    lines = [
        f"Job ID          {frame_row['job_id']}",
        f"Job Name        {frame_row['job_name']}",
        f"Execution File  {frame_row['executable']}",
        f"Queuing Time    {frame_row['queued_time']}",
        f"Starting Time   {frame_row['start_time']}",
        f"End Time        {frame_row['end_time']}",
        f"Location        {frame_row['location']}",
        f"User            {frame_row['user']}",
        f"Project         {frame_row['project']}",
        f"Size(midplanes) {frame_row['size_midplanes']}",
    ]
    return "\n".join(lines)
