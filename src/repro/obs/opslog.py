"""Append-only ops log: JSONL time series + RAS-schema mirror.

Two files under one ops directory, written in lockstep:

``ops.jsonl``
    Schema-versioned (``OPS_SCHEMA_VERSION``), one JSON record per
    line: a ``header`` first, then ``sample`` (metric windows from the
    sampler), ``heartbeat`` (the daemon's per-cycle vitals + derived
    health status) and ``alert`` (rule transitions) records in arrival
    order. This is the full-fidelity log `repro dash` and
    `repro health --history` read.

``ops_ras.psv``
    The capstone tie-in: heartbeats and alerts re-expressed as **RAS
    events** in the standard on-disk RAS format, so the system's own
    operational history feeds straight back into ``repro analyze`` —
    the paper's co-analysis run on the analyzer itself. Rows carry
    monotone recids, nondecreasing BG/P timestamps, component ``MMCS``
    (the control system — which is what the telemetry plane is),
    location ``R00-M0``, and errcodes ``OPS_HEARTBEAT`` /
    ``OPS_ALERT_<RULE>``; severity maps from health status
    (healthy→INFO, degraded→WARN, unhealthy→ERROR) or the alert rule's
    declared severity (clears log as INFO). Every row passes the strict
    ingest policy's field and cross-record checks.

Both files are append-only and fsync'd per write, like the late-record
sink: at-least-once across crashes, deduped on replay (recid for the
mirror; ``(type, t)`` for the JSONL side if it ever matters).
"""

from __future__ import annotations

import json
import os
from pathlib import Path

# NOTE: repro.logs/.frame imports stay function-local in this module —
# repro.logs.quarantine imports repro.obs.metrics, so a module-level
# import here would close an import cycle through the obs package init.

__all__ = [
    "OPS_SCHEMA_VERSION",
    "OpsLog",
    "read_ops_log",
]

OPS_SCHEMA_VERSION = 1

#: the RAS identity the mirror writes under — a valid midplane location
#: and the control-system component, per the Table II vocabularies
_RAS_LOCATION = "R00-M0"
_RAS_COMPONENT = "MMCS"
_RAS_SUBCOMPONENT = "TELEMETRY"

#: bytes of the mirror's tail read first when recovering the cursor
_TAIL_BYTES = 1 << 16

_STATUS_SEVERITY = {"healthy": "INFO", "degraded": "WARN", "unhealthy": "ERROR"}


def _sanitize_errcode(name: str) -> str:
    """Force *name* into the strict-ingest errcode alphabet."""
    cleaned = "".join(
        ch if ch.isalnum() or ch in "_.-" else "_" for ch in name.upper()
    )
    return cleaned or "RULE"


class OpsLog:
    """Appender for one ops directory (see module docstring)."""

    def __init__(self, directory: str | Path, machine: str = "live"):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.machine = machine
        self.jsonl_path = self.directory / "ops.jsonl"
        self.ras_path = self.directory / "ops_ras.psv"
        self._next_recid, self._last_event_time = self._recover_ras_cursor()
        if not self.jsonl_path.exists() or self.jsonl_path.stat().st_size == 0:
            self._append_jsonl(
                {
                    "type": "header",
                    "schema_version": OPS_SCHEMA_VERSION,
                    "machine": machine,
                }
            )

    def _recover_ras_cursor(self) -> tuple[int, float]:
        """Resume monotone recids/times across daemon restarts.

        The mirror's cross-record invariants (unique increasing recids,
        nondecreasing event times) must hold over the *whole file*, not
        one process lifetime, so a fresh appender picks up after the
        last row a reader would accept. A crash can leave a torn final
        line; it is skipped like the header. Only the file's tail is
        read, widened until it holds an accepted row or the whole file.
        """
        from repro.logs.stream import classify_ras_fields

        if not self.ras_path.exists():
            return 1, float("-inf")
        with open(self.ras_path, "rb") as fh:
            size = fh.seek(0, os.SEEK_END)
            span = _TAIL_BYTES
            while True:
                start = max(0, size - span)
                fh.seek(start)
                lines = fh.read(size - start).decode(
                    "utf-8", errors="replace"
                ).split("\n")
                if start > 0:
                    lines = lines[1:]  # may begin mid-line
                for line in reversed(lines):
                    defect, parsed = classify_ras_fields(line.rstrip("\r"))
                    if defect is None:
                        _, recid, event_time = parsed
                        return recid + 1, event_time
                if start == 0:
                    # header-only, or the first data row never landed
                    return 1, float("-inf")
                span *= 4

    # -- JSONL side -----------------------------------------------------

    def _append_jsonl(self, record: dict) -> None:
        with open(self.jsonl_path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
            fh.flush()
            os.fsync(fh.fileno())

    def write_sample(self, sample) -> None:
        self._append_jsonl(sample.as_record())

    def write_heartbeat(
        self, heartbeat: dict, t: float, status: str, reasons=()
    ) -> None:
        self._append_jsonl(
            {
                "type": "heartbeat",
                "t": t,
                "status": status,
                "reasons": list(reasons),
                "heartbeat": heartbeat,
            }
        )
        severity = _STATUS_SEVERITY.get(status, "WARN")
        detail = "; ".join(reasons) if reasons else "all signals nominal"
        self._append_ras(
            t=t,
            errcode="OPS_HEARTBEAT",
            severity=severity,
            message=f"daemon heartbeat: {status} ({detail})",
        )

    def write_alert(self, event) -> None:
        self._append_jsonl(event.as_record())
        self._append_ras(
            t=event.t,
            errcode=f"OPS_ALERT_{_sanitize_errcode(event.rule)}",
            severity=event.severity,
            message=(
                f"alert {event.rule} {event.kind}: {event.signal} = "
                f"{event.value!r} (threshold {event.threshold:g})"
            ),
        )

    # -- RAS mirror -----------------------------------------------------

    def _append_ras(
        self, t: float, errcode: str, severity: str, message: str
    ) -> None:
        from repro.logs.ras import RasLog, RasRecord
        from repro.logs.textio import append_log_rows, ras_disk_frame

        # clamp: the mirror's event times must never move backwards,
        # even if the caller's clock does (resume, fake clocks)
        t = max(float(t), self._last_event_time)
        recid = self._next_recid
        record = RasRecord(
            recid=recid,
            msg_id=f"OPS_{recid:08d}",
            component=_RAS_COMPONENT,
            subcomponent=_RAS_SUBCOMPONENT,
            errcode=errcode,
            severity=severity,
            event_time=t,
            location=_RAS_LOCATION,
            serialnumber=self.machine,
            message=message,
        )
        append_log_rows(
            ras_disk_frame(RasLog.from_records([record]).frame), self.ras_path
        )
        self._next_recid = recid + 1
        self._last_event_time = t


def read_ops_log(path: str | Path) -> list[dict]:
    """All records from an ``ops.jsonl`` (header included), in order."""
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records
