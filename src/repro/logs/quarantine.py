"""Ingestion strictness policies and the quarantine ledger.

A 237-day production RAS export never arrives clean: lines get
truncated by log rotation, delimiters get garbled by concatenated
writers, timestamps and severity tokens drift across firmware versions,
recids duplicate when the CMCS replays a buffer. This module defines

* the **defect taxonomy** (:class:`DefectClass`) every reader classifies
  bad lines into — the same taxonomy the seeded corruptor in
  :mod:`repro.faults.corruption` injects, so ground truth and detection
  speak one language;
* the **strictness policy** (:class:`IngestPolicy`): ``strict`` raises a
  typed :class:`IngestError` carrying line number + defect class on the
  first bad record, ``quarantine`` diverts bad records into a bounded
  :class:`QuarantineReport` with per-class counts and sample lines,
  ``skip`` drops them keeping counts only;
* the **damage thresholds**: ``max_bad_records`` aborts mid-stream the
  moment the count is exceeded, ``max_bad_fraction`` aborts at
  end-of-file when too large a share of the log was bad — either way an
  :class:`IngestAbortError` says the log is too damaged to trust.

The readers in :mod:`repro.frame.io`, :mod:`repro.logs.stream` and
:mod:`repro.logs.textio` all thread one policy + report pair through
their line loops via :func:`handle_bad_record` / :func:`finish_ingest`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from repro.obs.metrics import get_metrics

__all__ = [
    "DefectClass",
    "BadRecord",
    "QuarantineReport",
    "IngestPolicy",
    "IngestError",
    "IngestAbortError",
    "INGEST_MODES",
    "coerce_policy",
    "structural_defect",
    "typed_cell_defect",
    "handle_bad_record",
    "finish_ingest",
    "replay_defects",
]

#: Unicode replacement character emitted by ``errors="replace"`` decode;
#: its presence marks a line that was not valid UTF-8 on disk.
REPLACEMENT_CHAR = "�"

#: how many characters of a bad line a quarantine sample keeps
SAMPLE_WIDTH = 160


class DefectClass(enum.Enum):
    """The cataloged taxonomy of realistic log defects.

    Classification is unambiguous by construction: a line is classified
    by the *first* failing check in the order the members are declared
    (encoding damage trumps structure, structure trumps field values,
    field values trump cross-record checks).
    """

    #: line was not valid UTF-8 (replacement characters after decode)
    ENCODING_GARBAGE = "encoding_garbage"
    #: empty or whitespace-only line
    BLANK_LINE = "blank_line"
    #: fewer cells than the schema expects (line cut mid-record)
    TRUNCATED_LINE = "truncated_line"
    #: more cells than the schema expects (stray separator in a field)
    GARBLED_DELIMITER = "garbled_delimiter"
    #: a typed cell that does not parse (non-integer recid, bad float)
    BAD_FIELD = "bad_field"
    #: event timestamp not in the BG/P ``%Y-%m-%d-%H.%M.%S.%f`` form
    INVALID_TIMESTAMP = "invalid_timestamp"
    #: severity token outside the Table II vocabulary
    UNKNOWN_SEVERITY = "unknown_severity"
    #: component token outside the Table II vocabulary
    UNKNOWN_COMPONENT = "unknown_component"
    #: ERRCODE token that is not identifier-shaped
    UNKNOWN_ERRCODE = "unknown_errcode"
    #: recid already seen earlier in the same file
    DUPLICATE_RECID = "duplicate_recid"
    #: event time earlier than an already-accepted record's time
    OUT_OF_ORDER_TIME = "out_of_order_time"

    def __str__(self) -> str:
        return self.value


#: valid ``IngestPolicy.mode`` values
INGEST_MODES = ("strict", "quarantine", "skip")


@dataclass(frozen=True)
class BadRecord:
    """One quarantined line: where it was, what was wrong, what it said."""

    line_no: int  # 1-based physical line number (header is line 1)
    defect: DefectClass
    text: str  # sample, truncated to SAMPLE_WIDTH characters


class IngestError(ValueError):
    """Strict-mode rejection of one bad record (line number + defect)."""

    def __init__(self, line_no: int, defect: DefectClass, text: str):
        self.line_no = line_no
        self.defect = defect
        self.text = text[:SAMPLE_WIDTH]
        super().__init__(
            f"line {line_no}: {defect.value}: {self.text!r}"
        )


class IngestAbortError(RuntimeError):
    """The log is too damaged to trust under the active thresholds."""

    def __init__(self, report: "QuarantineReport", reason: str):
        self.report = report
        super().__init__(reason)


class QuarantineReport:
    """Bounded ledger of bad records diverted during one ingestion.

    Counts are exact per defect class; sample lines are capped at
    ``max_samples_per_class`` so a pathologically damaged multi-gigabyte
    log cannot balloon the report. The good lines are accounted too:
    ``clean_rows`` counts them, and the batch RAS readers keep their
    event-time ``clean_span``, so a read that keeps only the FATAL rows
    still knows the extent of the log.
    """

    def __init__(self, source: str = "", max_samples_per_class: int = 5):
        self.source = source
        self.max_samples_per_class = max_samples_per_class
        self.counts: dict[DefectClass, int] = {}
        self.samples: dict[DefectClass, list[BadRecord]] = {}
        self.total_rows = 0  # data lines seen (header excluded)
        #: (first, last) event time of the accepted rows; set by the
        #: batch RAS readers, None before any row is accepted
        self.clean_span: tuple[float, float] | None = None

    # ------------------------------------------------------------------

    def record(self, line_no: int, defect: DefectClass, text: str) -> None:
        """Count one bad line, keeping a bounded sample of it."""
        self.counts[defect] = self.counts.get(defect, 0) + 1
        get_metrics().counter(
            "ingest.quarantine.defects", defect=defect.value
        ).inc()
        kept = self.samples.setdefault(defect, [])
        if len(kept) < self.max_samples_per_class:
            kept.append(BadRecord(line_no, defect, text[:SAMPLE_WIDTH]))

    def note_clean_times(self, times) -> None:
        """Widen :attr:`clean_span` over accepted rows' event *times*."""
        if not len(times):
            return
        lo, hi = float(np.min(times)), float(np.max(times))
        if self.clean_span is not None:
            lo, hi = min(lo, self.clean_span[0]), max(hi, self.clean_span[1])
        self.clean_span = (lo, hi)

    @property
    def bad_rows(self) -> int:
        return sum(self.counts.values())

    @property
    def clean_rows(self) -> int:
        return self.total_rows - self.bad_rows

    @property
    def bad_fraction(self) -> float:
        if self.total_rows == 0:
            return 0.0
        return self.bad_rows / self.total_rows

    def count(self, defect: DefectClass) -> int:
        return self.counts.get(defect, 0)

    def as_dict(self) -> dict[str, int]:
        """Per-class counts keyed by defect value (for reports/tests)."""
        return {d.value: n for d, n in sorted(
            self.counts.items(), key=lambda kv: kv[0].value
        )}

    # ------------------------------------------------------------------

    def render(self, label: str = "") -> str:
        """Human-readable summary (totals, per-class counts, samples)."""
        title = f"quarantine report{f' [{label}]' if label else ''}"
        lines = [
            f"-- {title} " + "-" * max(1, 60 - len(title)),
            f"rows: {self.total_rows} total | {self.clean_rows} clean"
            f" | {self.bad_rows} bad"
            f" ({100.0 * self.bad_fraction:.2f}%)",
        ]
        for defect in DefectClass:
            n = self.counts.get(defect, 0)
            if not n:
                continue
            lines.append(f"  {defect.value:<20} {n:>8}")
            for rec in self.samples.get(defect, ()):
                lines.append(f"    line {rec.line_no}: {rec.text!r}")
        if not self.counts:
            lines.append("  (no bad records)")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"QuarantineReport(total={self.total_rows},"
            f" bad={self.bad_rows}, classes={self.as_dict()})"
        )


@dataclass(frozen=True)
class IngestPolicy:
    """What a reader does when it meets a bad record.

    ``strict`` raises on the first defect, ``quarantine`` diverts bad
    records into the report with samples, ``skip`` drops them keeping
    counts only. ``max_bad_records`` is enforced incrementally (abort
    as soon as exceeded); ``max_bad_fraction`` at end of ingestion,
    when the total row count is known.
    """

    mode: str = "strict"
    max_bad_records: int | None = None
    max_bad_fraction: float | None = None
    max_samples_per_class: int = 5

    def __post_init__(self):
        if self.mode not in INGEST_MODES:
            raise ValueError(
                f"mode must be one of {INGEST_MODES}, got {self.mode!r}"
            )
        if self.max_bad_records is not None and self.max_bad_records < 0:
            raise ValueError("max_bad_records must be non-negative")
        if self.max_bad_fraction is not None and not (
            0.0 <= self.max_bad_fraction <= 1.0
        ):
            raise ValueError("max_bad_fraction must be within [0, 1]")
        if self.max_samples_per_class < 0:
            raise ValueError("max_samples_per_class must be non-negative")

    @property
    def is_strict(self) -> bool:
        return self.mode == "strict"

    def new_report(self, source: str = "") -> QuarantineReport:
        """A fresh report for one ingestion under this policy.

        ``skip`` mode keeps no samples — counts only.
        """
        samples = 0 if self.mode == "skip" else self.max_samples_per_class
        return QuarantineReport(source, max_samples_per_class=samples)


#: the default policy: today's raise-on-first-defect behavior, typed
STRICT = IngestPolicy()


def coerce_policy(policy: "IngestPolicy | str | None") -> IngestPolicy:
    """Accept an :class:`IngestPolicy`, a bare mode string, or ``None``."""
    if policy is None:
        return STRICT
    if isinstance(policy, str):
        return IngestPolicy(mode=policy)
    return policy


# ----------------------------------------------------------------------
# shared per-line machinery


def structural_defect(
    line: str, num_cells: int, expected_cells: int
) -> DefectClass | None:
    """Structural checks shared by every delimited reader.

    *line* is the raw (separator-unsplit) text; *num_cells* the count
    after splitting on the separator.
    """
    if REPLACEMENT_CHAR in line:
        return DefectClass.ENCODING_GARBAGE
    if not line.strip():
        return DefectClass.BLANK_LINE
    if num_cells < expected_cells:
        return DefectClass.TRUNCATED_LINE
    if num_cells > expected_cells:
        return DefectClass.GARBLED_DELIMITER
    return None


def typed_cell_defect(value: str, tag: str) -> DefectClass | None:
    """``BAD_FIELD`` when a typed cell cannot parse under its header tag."""
    if tag == "int":
        try:
            int(value)
        except ValueError:
            return DefectClass.BAD_FIELD
    elif tag == "float":
        try:
            float(value)
        except ValueError:
            return DefectClass.BAD_FIELD
    elif tag == "bool":
        if value not in ("True", "False"):
            return DefectClass.BAD_FIELD
    return None


def handle_bad_record(
    policy: IngestPolicy,
    report: QuarantineReport,
    line_no: int,
    defect: DefectClass,
    text: str,
) -> None:
    """Route one bad line through the policy.

    Raises :class:`IngestError` in strict mode, records into the report
    otherwise, and aborts once ``max_bad_records`` is exceeded.
    """
    if policy.is_strict:
        raise IngestError(line_no, defect, text)
    report.record(line_no, defect, text)
    if (
        policy.max_bad_records is not None
        and report.bad_rows > policy.max_bad_records
    ):
        raise IngestAbortError(
            report,
            f"{report.bad_rows} bad records exceed"
            f" max_bad_records={policy.max_bad_records}"
            f" (log too damaged to trust)",
        )


def finish_ingest(policy: IngestPolicy, report: QuarantineReport) -> None:
    """End-of-file threshold check (the bad-fraction abort)."""
    if (
        policy.max_bad_fraction is not None
        and report.total_rows > 0
        and report.bad_fraction > policy.max_bad_fraction
    ):
        raise IngestAbortError(
            report,
            f"bad fraction {report.bad_fraction:.3f} exceeds"
            f" max_bad_fraction={policy.max_bad_fraction:g}"
            f" (log too damaged to trust)",
        )


def replay_defects(
    policy: IngestPolicy,
    report: QuarantineReport,
    defects: list[tuple[int, DefectClass, str]],
    total_lines: int,
) -> None:
    """Route a whole parse's defects through *policy*, in line order.

    *defects* are ``(line_no, defect, text)`` over *total_lines* data
    lines, the first of them line 2 (after the header).
    ``report.total_rows`` is set to a line-by-line read's running count
    before each defect is handled, so a strict raise or a
    ``max_bad_records`` abort leaves the report that read would leave;
    then the whole count is added and the end-of-file check runs.
    """
    base = report.total_rows
    for line_no, defect, text in defects:
        report.total_rows = base + line_no - 1
        handle_bad_record(policy, report, line_no, defect, text)
    report.total_rows = base + total_lines
    finish_ingest(policy, report)
