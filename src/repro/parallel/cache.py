"""Content-addressed on-disk cache of parsed log frames.

A cache entry is keyed by a blake2b digest over the *file content* plus
everything that can change the parse result: the cache schema version,
the reader kind (``ras``, ``ras:fatal`` for the FATAL-only read, or
``job``), the cell separator and the full ingest-policy fingerprint.
Any edit to the log, bump of the layout, or change of policy therefore
misses cleanly — there is no mtime heuristic to go stale.

Entries hold only **successful** parses (a strict raise or an ingest
abort stores nothing), as two files committed json-last:

* ``<key>.npz`` — the frame, in the one frame file format
  (:mod:`repro.frame.npz`): numeric columns raw, string columns as
  sorted distinct values plus ``int32`` codes, which loads an order of
  magnitude faster than pickling the full column and round-trips
  bit-identically;
* ``<key>.json`` — the frame's column spec, and the quarantine-report
  state (counts, bounded samples, total rows, and the accepted rows'
  event-time span) so a cache hit can replay the report exactly as the
  parse produced it. A FATAL-only entry holds the FATAL rows; the
  report state gives the accepted-row count (total rows less the bad
  ones) and the span of the whole log.

``load`` treats *any* defect — missing file, truncated npz, schema
drift — as a miss and returns ``None``; the caller re-parses and
re-stores. Both files are written with :func:`repro.durable.atomic_write`,
so a crashed writer never leaves a readable half-entry.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.durable import atomic_write, content_hash
from repro.frame.frame import Frame
from repro.frame.npz import FrameFileError, read_frame, write_frame
from repro.logs.quarantine import DefectClass, IngestPolicy, QuarantineReport
from repro.obs.metrics import get_metrics

__all__ = ["PARSE_SCHEMA_VERSION", "ParseCache", "apply_report_state"]

#: bump whenever the npz/sidecar layout or parse semantics change
PARSE_SCHEMA_VERSION = 3


def _policy_fingerprint(policy: IngestPolicy) -> str:
    return (
        f"{policy.mode}:{policy.max_bad_records}"
        f":{policy.max_bad_fraction!r}:{policy.max_samples_per_class}"
    )


def _report_state(report: QuarantineReport) -> dict:
    return {
        "total_rows": report.total_rows,
        "counts": {d.value: n for d, n in report.counts.items()},
        "samples": {
            d.value: [[rec.line_no, rec.text] for rec in recs]
            for d, recs in report.samples.items()
        },
        "clean_span": report.clean_span,
    }


def _is_report_state(state) -> bool:
    """Whether *state* has the shape :func:`_report_state` writes, so
    :func:`apply_report_state` can replay it without raising. Checked
    without replaying: a replay bumps the defect counters."""
    if state is None:
        return True
    keys = {"total_rows", "counts", "samples", "clean_span"}
    if not isinstance(state, dict) or not keys <= state.keys():
        return False
    defects = {d.value for d in DefectClass}
    counts, samples, span = state["counts"], state["samples"], state["clean_span"]
    span_ok = span is None or (
        isinstance(span, list)
        and len(span) == 2
        and all(type(t) in (int, float) for t in span)
    )
    counts_ok = isinstance(counts, dict) and all(
        k in defects and type(n) is int for k, n in counts.items()
    )
    samples_ok = isinstance(samples, dict) and all(
        k in defects
        and isinstance(recs, list)
        and all(
            isinstance(rec, list)
            and len(rec) == 2
            and type(rec[0]) is int
            and isinstance(rec[1], str)
            for rec in recs
        )
        for k, recs in samples.items()
    )
    return type(state["total_rows"]) is int and span_ok and counts_ok and samples_ok


def apply_report_state(report: QuarantineReport, state: dict) -> None:
    """Replay cached quarantine state into *report* (accumulating)."""
    report.total_rows += int(state["total_rows"])
    if state["clean_span"] is not None:
        report.note_clean_times(state["clean_span"])
    for value, n in state["counts"].items():
        defect = DefectClass(value)
        report.counts[defect] = report.counts.get(defect, 0) + int(n)
        # a cache hit re-observes the same defects the original parse
        # diverted, so the run's counters match a cacheless run
        get_metrics().counter(
            "ingest.quarantine.defects", defect=defect.value
        ).inc(int(n))
    for value, recs in state["samples"].items():
        defect = DefectClass(value)
        kept = report.samples.setdefault(defect, [])
        for line_no, text in recs:
            if len(kept) < report.max_samples_per_class:
                from repro.logs.quarantine import BadRecord

                kept.append(BadRecord(int(line_no), defect, text))


class ParseCache:
    """Directory-backed cache of parsed frames, keyed by content."""

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        #: how the most recent :meth:`load` resolved
        #: (``hit``/``miss``/``stale``/``corrupt``, ``None`` before any)
        self.last_status: str | None = None

    # -- keying ---------------------------------------------------------

    def key_for(
        self,
        path: str | Path,
        kind: str,
        policy: IngestPolicy,
        sep: str = "|",
    ) -> str:
        """Cache key for parsing *path* as *kind* under *policy*."""
        meta = (
            f"v{PARSE_SCHEMA_VERSION}|{kind}|{sep!r}"
            f"|{_policy_fingerprint(policy)}|{content_hash(Path(path))}"
        )
        return content_hash(meta.encode("utf-8"))

    # -- round trip -----------------------------------------------------

    def _paths(self, key: str) -> tuple[Path, Path]:
        return self.directory / f"{key}.npz", self.directory / f"{key}.json"

    def store(
        self, key: str, frame: Frame, report: QuarantineReport | None
    ) -> None:
        """Persist one successful parse; failures here never propagate."""
        npz_path, json_path = self._paths(key)
        try:
            columns = write_frame(npz_path, frame)
            sidecar = {
                "version": PARSE_SCHEMA_VERSION,
                "columns": columns,
                "report": None if report is None else _report_state(report),
            }
            payload = json.dumps(sidecar).encode("utf-8")
            atomic_write(json_path, lambda fh: fh.write(payload))
        except OSError:
            return  # a full or read-only cache dir degrades to no cache

    def load(self, key: str) -> tuple[Frame, dict | None] | None:
        """The cached ``(frame, report_state)`` for *key*, or ``None``.

        Every failure mode — absent entry, corrupt npz, sidecar/version
        drift — is a miss, never an exception. ``last_status`` (and the
        ``ingest.cache.*`` counters) distinguish how the lookup went:
        ``hit``, ``miss`` (no entry), ``stale`` (schema-version drift)
        or ``corrupt`` (entry present but unreadable).
        """
        value, status = self._load_classified(key)
        self.last_status = status
        get_metrics().counter("ingest.cache.lookups", status=status).inc()
        return value

    def _load_classified(
        self, key: str
    ) -> tuple[tuple[Frame, dict | None] | None, str]:
        npz_path, json_path = self._paths(key)
        if not json_path.exists():
            return None, "miss"
        # Stage 1: the sidecar. Unparseable JSON is a corrupt entry;
        # parseable JSON of a different layout generation is stale.
        try:
            with open(json_path, "r", encoding="utf-8") as fh:
                sidecar = json.load(fh)
        except (OSError, json.JSONDecodeError, UnicodeDecodeError):
            return None, "corrupt"
        if not isinstance(sidecar, dict):
            return None, "corrupt"
        if sidecar.get("version") != PARSE_SCHEMA_VERSION:
            return None, "stale"
        # Stage 2: the columns. Any defect the frame codec finds —
        # torn npz, codes past their dictionary, ragged columns — is a
        # corrupt entry; fall through to a re-parse.
        try:
            frame = read_frame(npz_path, sidecar["columns"])
            report = sidecar["report"]
        except (FrameFileError, KeyError):
            return None, "corrupt"
        # Stage 3: the report state, which a hit replays as it is
        if not _is_report_state(report):
            return None, "corrupt"
        return (frame, report), "hit"
