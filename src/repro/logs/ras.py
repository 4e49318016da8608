"""The RAS event record (Table II) and its columnar container."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.frame import Frame
from repro.logs.window import select


class Severity(enum.Enum):
    """RAS severity levels in increasing order of criticality (§III-B).

    DEBUG and TRACE never occur in the Intrepid log; only FATAL events
    presumably crash applications or the system, so the co-analysis
    focuses on them.
    """

    DEBUG = 0
    TRACE = 1
    INFO = 2
    WARN = 3
    ERROR = 4
    FATAL = 5

    def __str__(self) -> str:
        return self.name


class Component(enum.Enum):
    """Software component reporting the event (§III-B)."""

    APPLICATION = "APPLICATION"  # the running job
    KERNEL = "KERNEL"            # OS kernel domain
    MC = "MC"                    # machine controller
    MMCS = "MMCS"                # control system on the service node
    BAREMETAL = "BAREMETAL"      # service-related facilities
    CARD = "CARD"                # card controller
    DIAGS = "DIAGS"              # diagnostics on compute/service nodes

    def __str__(self) -> str:
        return self.value


SEVERITIES = tuple(s.name for s in Severity)
COMPONENTS = tuple(c.value for c in Component)

#: canonical RAS frame columns, in Table II order
RAS_COLUMNS = (
    "recid",
    "msg_id",
    "component",
    "subcomponent",
    "errcode",
    "severity",
    "event_time",
    "location",
    "serialnumber",
    "message",
)


@dataclass(frozen=True)
class RasRecord:
    """One RAS event, fields as in Table II.

    ``event_time`` is epoch seconds (float, microsecond precision); the
    text io renders it in the BG/P ``YYYY-MM-DD-HH.MM.SS.ffffff`` form.
    """

    recid: int
    msg_id: str
    component: str
    subcomponent: str
    errcode: str
    severity: str
    event_time: float
    location: str
    serialnumber: str
    message: str

    def __post_init__(self):
        if self.severity not in SEVERITIES:
            raise ValueError(f"unknown severity {self.severity!r}")
        if self.component not in COMPONENTS:
            raise ValueError(f"unknown component {self.component!r}")


class RasLog:
    """A RAS log: thin typed wrapper around a :class:`Frame`.

    The frame always carries the :data:`RAS_COLUMNS`; rows are kept in
    event-time order (ties broken by recid).

    A FATAL-only read (``read_ras_log(..., fatal_only=True)``) passes
    *records* and *span*: the frame then holds the FATAL rows only,
    while :attr:`num_records` and :meth:`time_span` describe every
    record the log was read from (*span* is ``None`` when there was
    none).
    """

    def __init__(
        self,
        frame: Frame,
        records: int | None = None,
        span: tuple[float, float] | None = None,
    ):
        missing = [c for c in RAS_COLUMNS if c not in frame]
        if missing:
            raise ValueError(f"RAS frame missing columns {missing}")
        self.frame = frame
        self._records = records
        self._span = span
        #: filled by the tolerant readers (`repro.logs.textio` /
        #: `repro.logs.stream`) when a non-strict ingest policy diverted
        #: bad records; None for strict or in-memory logs
        self.quarantine = None

    @classmethod
    def from_records(cls, records: Iterable[RasRecord]) -> "RasLog":
        records = sorted(records, key=lambda r: (r.event_time, r.recid))
        data: dict[str, list] = {c: [] for c in RAS_COLUMNS}
        for r in records:
            for c in RAS_COLUMNS:
                data[c].append(getattr(r, c))
        if not records:
            return cls(_empty_ras_frame())
        return cls(Frame(data))

    def to_records(self) -> list[RasRecord]:
        return [RasRecord(**row) for row in self.frame.to_rows()]

    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return self.frame.num_rows

    @property
    def num_records(self) -> int:
        """Records the log stands for: its rows, or every accepted
        record of a FATAL-only read."""
        return self.frame.num_rows if self._records is None else self._records

    def fatal(self) -> "RasLog":
        """The FATAL-severity subset, as a new log."""
        return RasLog(self.frame.filter(self.frame.mask_eq("severity", "FATAL")))

    def time_span(self) -> tuple[float, float]:
        """(first, last) event time of :attr:`num_records` records;
        raises on an empty log."""
        if not self.num_records:
            raise ValueError("empty log has no time span")
        if self._records is not None:
            return self._span
        t = self.frame["event_time"]
        return float(t.min()), float(t.max())

    def select_time(self, t0: float, t1: float) -> "RasLog":
        """Events with ``t0 <= event_time < t1``
        (:func:`repro.logs.window.select`)."""
        return RasLog(select(self.frame, "ras", t0, t1))


def _empty_ras_frame() -> Frame:
    dtypes = {
        "recid": np.int64,
        "event_time": np.float64,
    }
    return Frame(
        {
            c: np.array([], dtype=dtypes.get(c, object))
            for c in RAS_COLUMNS
        }
    )


def empty_ras_log() -> RasLog:
    """An empty RAS log with the canonical schema."""
    return RasLog(_empty_ras_frame())
