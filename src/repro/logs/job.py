"""The Cobalt job record (Table III) and its columnar container."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.frame import Frame
from repro.logs.window import select

#: the job log's typed header, as :func:`repro.logs.textio.write_job_log`
#: writes it: Table III fields plus the size in midplanes (recoverable
#: from location, materialized for analysis), each with the dtype tag
#: its header cell carries. Both job readers hold a header to it.
JOB_SCHEMA = (
    ("job_id", "int"),
    ("job_name", "str"),
    ("executable", "str"),
    ("queued_time", "float"),
    ("start_time", "float"),
    ("end_time", "float"),
    ("location", "str"),
    ("user", "str"),
    ("project", "str"),
    ("size_midplanes", "int"),
)
#: canonical job frame columns
JOB_COLUMNS = tuple(name for name, _ in JOB_SCHEMA)
#: their dtype tags, in the same order
JOB_TAGS = tuple(tag for _, tag in JOB_SCHEMA)


def check_job_header(header: str) -> None:
    """Raise ``ValueError`` unless *header* is the :data:`JOB_SCHEMA` header.

    A job log whose header names other columns, or types one of them
    differently (``job_id:str``), cannot be trusted row by row.
    """
    cells = header.split("|")
    if tuple(tuple(cell.rpartition(":")[::2]) for cell in cells) != JOB_SCHEMA:
        raise ValueError(f"unexpected job header {cells}")


@dataclass(frozen=True)
class JobRecord:
    """One job, fields as in Table III.

    Times are epoch seconds (the real Cobalt log stores epoch floats for
    queuing/starting/end time, cf. Table III). ``location`` is a
    partition name such as ``R10-R11``; ``executable`` identifies the
    *distinct job* — the paper treats jobs sharing an execution file as
    one distinct job.
    """

    job_id: int
    job_name: str
    executable: str
    queued_time: float
    start_time: float
    end_time: float
    location: str
    user: str
    project: str
    size_midplanes: int

    def __post_init__(self):
        if self.end_time < self.start_time:
            raise ValueError(
                f"job {self.job_id}: end {self.end_time} before start "
                f"{self.start_time}"
            )
        if self.start_time < self.queued_time:
            raise ValueError(
                f"job {self.job_id}: started before it was queued"
            )


class JobLog:
    """A job log: thin typed wrapper around a :class:`Frame`."""

    def __init__(self, frame: Frame):
        missing = [c for c in JOB_COLUMNS if c not in frame]
        if missing:
            raise ValueError(f"job frame missing columns {missing}")
        self.frame = frame
        #: filled by `repro.logs.textio.read_job_log` when a non-strict
        #: ingest policy diverted bad records; None otherwise
        self.quarantine = None

    @classmethod
    def from_records(cls, records: Iterable[JobRecord]) -> "JobLog":
        records = sorted(records, key=lambda r: (r.start_time, r.job_id))
        if not records:
            return cls(_empty_job_frame())
        data: dict[str, list] = {c: [] for c in JOB_COLUMNS}
        for r in records:
            for c in JOB_COLUMNS:
                data[c].append(getattr(r, c))
        return cls(Frame(data))

    def to_records(self) -> list["JobRecord"]:
        return [JobRecord(**row) for row in self.frame.to_rows()]

    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return self.frame.num_rows

    @property
    def num_jobs(self) -> int:
        return self.frame.num_rows

    def num_distinct_jobs(self) -> int:
        """Jobs sharing an execution file count once (§III-B)."""
        return self.frame.nunique("executable")

    def runtimes(self) -> np.ndarray:
        return self.frame["end_time"] - self.frame["start_time"]

    def time_span(self) -> tuple[float, float]:
        if not len(self):
            raise ValueError("empty log has no time span")
        return float(self.frame["start_time"].min()), float(
            self.frame["end_time"].max()
        )

    def select_time(self, t0: float, t1: float) -> "JobLog":
        """Jobs with ``t0 <= start_time < t1``, however long they run
        (:func:`repro.logs.window.select`)."""
        return JobLog(select(self.frame, "job", t0, t1))


def _empty_job_frame() -> Frame:
    dtypes = {
        "job_id": np.int64,
        "queued_time": np.float64,
        "start_time": np.float64,
        "end_time": np.float64,
        "size_midplanes": np.int64,
    }
    return Frame(
        {c: np.array([], dtype=dtypes.get(c, object)) for c in JOB_COLUMNS}
    )


def empty_job_log() -> JobLog:
    """An empty job log with the canonical schema."""
    return JobLog(_empty_job_frame())
