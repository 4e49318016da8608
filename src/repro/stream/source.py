"""Tailing sources: poll growing log files into streaming increments.

A live CMCS/Cobalt feed is a file that keeps growing, gets rotated by
the logger mid-read, and sits on storage that fails transiently. This
layer turns such a file into the clean (RAS chunk, job chunk) pairs the
streaming runner consumes:

* :class:`LogTailer` polls one file by byte offset, detects rotation
  and truncation through an **inode + offset fingerprint**, never
  consumes an unterminated final line (a half-written record is
  *pending*, not data — the same discipline
  :func:`repro.logs.stream.iter_ras_chunks` applies with a
  :class:`~repro.logs.stream.PartialTail`), and wraps every filesystem
  call in a configurable :class:`RetryPolicy`;
* :class:`RetryPolicy` classifies retryable errnos and schedules
  exponential backoff with seeded jitter under an overall deadline;
  when the deadline passes, the poll **degrades** instead of raising —
  the tailer keeps its offset, so a feed that comes back later loses no
  data;
* :class:`RasFeedParser` / :class:`JobFeedParser` validate the tailed
  lines against the defect taxonomy (:mod:`repro.logs.quarantine`) and
  drop **re-delivered** records (same recid / job id seen again after a
  rotation forced a re-read from offset zero) so at-least-once delivery
  from the file becomes exactly-once ingestion;
* :class:`Feed` ties one tailer to one parser and exposes
  ``poll() -> FeedChunk`` plus a serializable state dict the daemon
  checkpoint carries, making a crash-resume re-read harmless.

All clocks and sleeps are injectable; the fault-injection harness
(:mod:`repro.faults.io`) swaps the filesystem facade, which is how the
kill-and-resume fuzz suite drives every failure path deterministically.
"""

from __future__ import annotations

import errno
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.frame import Frame
from repro.frame.io import _PARSERS, _parse_header, unescape_cell
from repro.logs.job import JOB_COLUMNS, JobLog, empty_job_log
from repro.logs.quarantine import (
    IngestPolicy,
    QuarantineReport,
    coerce_policy,
    handle_bad_record,
    structural_defect,
    typed_cell_defect,
)
from repro.logs.ras import RasLog, empty_ras_log
from repro.logs.stream import _DISK_COLUMNS, parse_ras_block
from repro.obs.metrics import get_metrics

__all__ = [
    "FEED_DEGRADED",
    "FEED_IDLE",
    "FEED_OK",
    "Feed",
    "FeedChunk",
    "JobFeedParser",
    "LogTailer",
    "RasFeedParser",
    "RetryExhausted",
    "RetryPolicy",
    "TailPoll",
    "TailState",
    "split_complete_lines",
    "with_retry",
]

#: poll outcomes, also used as ``stream.source.polls`` metric labels
FEED_OK = "ok"
FEED_IDLE = "idle"
FEED_DEGRADED = "degraded"


# ----------------------------------------------------------------------
# retry policy


class RetryExhausted(OSError):
    """Retries ran out (attempt cap or deadline) on a retryable error."""

    def __init__(self, attempts: int, elapsed_s: float, last: BaseException):
        self.attempts = attempts
        self.elapsed_s = elapsed_s
        self.last = last
        super().__init__(
            f"gave up after {attempts} attempts over {elapsed_s:.2f}s: {last}"
        )


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with jitter, an attempt cap and a deadline.

    An ``OSError`` whose errno is in ``retryable_errnos`` is retried
    after ``base_delay_s * multiplier**(attempt-1)`` seconds (capped at
    ``max_delay_s``), jittered by up to ``jitter`` of itself from the
    caller's seeded RNG. Retrying stops — with :class:`RetryExhausted`
    — when ``max_attempts`` calls failed or ``deadline_s`` of clock has
    passed since the first attempt. Everything else propagates
    unretried: a permission error will not fix itself.
    """

    max_attempts: int = 5
    base_delay_s: float = 0.05
    multiplier: float = 2.0
    max_delay_s: float = 2.0
    jitter: float = 0.25
    deadline_s: float = 10.0
    retryable_errnos: frozenset = frozenset(
        {
            errno.EIO,
            errno.EAGAIN,
            errno.EINTR,
            errno.ENOENT,
            errno.ESTALE,
            errno.EBUSY,
        }
    )

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if self.deadline_s < 0 or self.base_delay_s < 0:
            raise ValueError("delays must be non-negative")

    def is_retryable(self, exc: BaseException) -> bool:
        return (
            isinstance(exc, OSError)
            and not isinstance(exc, RetryExhausted)
            and exc.errno in self.retryable_errnos
        )

    def delay_s(self, attempt: int, rng: np.random.Generator) -> float:
        """Backoff before retry *attempt* (1-based), jittered."""
        delay = min(
            self.base_delay_s * self.multiplier ** max(attempt - 1, 0),
            self.max_delay_s,
        )
        if self.jitter > 0:
            delay *= 1.0 + self.jitter * float(rng.uniform(-1.0, 1.0))
        return max(delay, 0.0)


def with_retry(
    fn,
    policy: RetryPolicy,
    rng: np.random.Generator,
    clock=time.monotonic,
    sleep=time.sleep,
):
    """Run *fn* under *policy*; returns its result or raises.

    Non-retryable errors propagate immediately;
    :class:`RetryExhausted` chains the last retryable error once the
    attempt cap or deadline is hit.
    """
    t0 = clock()
    attempt = 0
    while True:
        try:
            return fn()
        except OSError as exc:
            if not policy.is_retryable(exc):
                raise
            attempt += 1
            elapsed = clock() - t0
            if attempt >= policy.max_attempts or elapsed >= policy.deadline_s:
                raise RetryExhausted(attempt, elapsed, exc) from exc
            get_metrics().counter("stream.source.retries").inc()
            sleep(policy.delay_s(attempt, rng))


# ----------------------------------------------------------------------
# the byte-offset tailer


def split_complete_lines(data: bytes) -> tuple[list[bytes], bytes]:
    """Split *data* into newline-terminated lines plus the pending tail.

    The tail (everything after the last ``\\n``) is a half-written
    record the writer has not finished — it must stay unconsumed so the
    next poll re-reads it whole.
    """
    if not data:
        return [], b""
    cut = data.rfind(b"\n")
    if cut < 0:
        return [], data
    return data[: cut + 1].split(b"\n")[:-1], data[cut + 1 :]


@dataclass
class TailState:
    """One feed's durable cursor: where to resume, and on which inode."""

    path: str
    offset: int = 0
    inode: int = -1
    generation: int = 0  # bumps on every detected rotation
    rotations: int = 0
    truncations: int = 0
    lines_delivered: int = 0

    def as_dict(self) -> dict:
        return {
            "path": self.path,
            "offset": self.offset,
            "inode": self.inode,
            "generation": self.generation,
            "rotations": self.rotations,
            "truncations": self.truncations,
            "lines_delivered": self.lines_delivered,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "TailState":
        return cls(
            path=str(payload["path"]),
            offset=int(payload["offset"]),
            inode=int(payload["inode"]),
            generation=int(payload["generation"]),
            rotations=int(payload["rotations"]),
            truncations=int(payload["truncations"]),
            lines_delivered=int(payload["lines_delivered"]),
        )


@dataclass(frozen=True)
class TailPoll:
    """One poll's outcome: status, the new complete lines, what moved."""

    status: str
    lines: list[str] = field(default_factory=list)
    events: tuple[str, ...] = ()
    error: str | None = None
    bytes_read: int = 0


class _RealFS:
    def stat(self, path):
        return os.stat(path)

    def open(self, path):
        return open(path, "rb")


class LogTailer:
    """Polls one growing file, resuming from a durable byte offset.

    Rotation is detected by inode change, truncation by the file
    shrinking below the consumed offset; both reset the offset to zero
    and re-read — re-delivered records are the parser's to drop. Every
    filesystem call runs under the retry policy; exhausting it degrades
    the poll (offset untouched — no data loss) instead of raising.
    """

    #: per-poll read cap: one poll never buffers more than this
    MAX_BYTES = 8 << 20

    def __init__(
        self,
        path: str | Path,
        retry: RetryPolicy | None = None,
        fs=None,
        clock=time.monotonic,
        sleep=time.sleep,
        seed: int = 0,
        max_bytes: int | None = None,
    ):
        self.state = TailState(path=str(path))
        self.retry = retry if retry is not None else RetryPolicy()
        self.fs = fs if fs is not None else _RealFS()
        self.clock = clock
        self.sleep = sleep
        self.max_bytes = max_bytes if max_bytes else self.MAX_BYTES
        self._rng = np.random.default_rng(seed)

    # ------------------------------------------------------------------

    def poll(self) -> TailPoll:
        """Read any new complete lines past the cursor."""
        metrics = get_metrics()
        try:
            result, offset, inode = with_retry(
                self._attempt,
                self.retry,
                self._rng,
                clock=self.clock,
                sleep=self.sleep,
            )
        except RetryExhausted as exc:
            metrics.counter(
                "stream.source.polls", status=FEED_DEGRADED
            ).inc()
            return TailPoll(status=FEED_DEGRADED, error=str(exc))
        # commit the cursor only after a fully successful attempt, so a
        # retried partial read never double-counts or skips bytes
        for event in result.events:
            if event == "rotated":
                self.state.generation += 1
                self.state.rotations += 1
                metrics.counter("stream.source.rotations").inc()
            elif event == "truncated":
                self.state.truncations += 1
                metrics.counter("stream.source.truncations").inc()
        self.state.offset = offset
        self.state.inode = inode
        self.state.lines_delivered += len(result.lines)
        metrics.counter("stream.source.polls", status=result.status).inc()
        metrics.counter("stream.source.bytes").inc(result.bytes_read)
        return result

    # ------------------------------------------------------------------

    def _attempt(self) -> tuple[TailPoll, int, int]:
        """One all-or-nothing poll attempt over local cursor copies."""
        offset = self.state.offset
        inode = self.state.inode
        events: list[str] = []
        try:
            st = self.fs.stat(self.state.path)
        except FileNotFoundError:
            if inode == -1:
                # feed simply not created yet — idle, not an error
                return TailPoll(status=FEED_IDLE), offset, inode
            raise  # mid-rotation window: retryable (ENOENT)
        if inode != -1 and st.st_ino != inode:
            events.append("rotated")
            offset = 0
        if st.st_size < offset:
            events.append("truncated")
            offset = 0
        inode = st.st_ino
        if st.st_size == offset:
            return (
                TailPoll(status=FEED_IDLE, events=tuple(events)),
                offset,
                inode,
            )
        fh = self.fs.open(self.state.path)
        try:
            fh.seek(offset)
            chunks: list[bytes] = []
            remaining = self.max_bytes
            while remaining > 0:
                data = fh.read(min(remaining, 1 << 16))
                if not data:
                    break
                chunks.append(data)
                remaining -= len(data)
        finally:
            fh.close()
        buf = b"".join(chunks)
        complete, pending = split_complete_lines(buf)
        consumed = len(buf) - len(pending)
        lines = [
            raw.decode("utf-8", errors="replace").rstrip("\r")
            for raw in complete
        ]
        status = FEED_OK if lines else FEED_IDLE
        return (
            TailPoll(
                status=status,
                lines=lines,
                events=tuple(events),
                bytes_read=consumed,
            ),
            offset + consumed,
            inode,
        )


# ----------------------------------------------------------------------
# feed parsers: tailed lines -> typed log chunks, exactly once


class FeedParseError(ValueError):
    """The feed's header does not carry the expected schema."""


class _FeedParserBase:
    """Shared header handling, dedup and quarantine routing."""

    table = ""

    def __init__(
        self,
        policy: IngestPolicy | str | None = "quarantine",
        report: QuarantineReport | None = None,
    ):
        self.policy = coerce_policy(policy)
        self.report = (
            report
            if report is not None
            else self.policy.new_report(f"feed:{self.table}")
        )
        self.header_text: str | None = None
        self.seen_ids: set[int] = set()
        self.lines_seen = 0

    # -- state the daemon checkpoint carries ---------------------------

    def state_dict(self) -> dict:
        return {
            "header": self.header_text,
            "seen_ids": sorted(self.seen_ids),
            "lines_seen": self.lines_seen,
        }

    def restore(self, payload: dict) -> None:
        self.header_text = payload["header"]
        self.seen_ids = {int(i) for i in payload["seen_ids"]}
        self.lines_seen = int(payload["lines_seen"])

    # ------------------------------------------------------------------

    def _take_header(self, text: str) -> bool:
        """Consume *text* as a header if one is due (or re-delivered)."""
        if self.header_text is None:
            self._check_header(text)
            self.header_text = text
            return True
        if text == self.header_text:
            # rotation re-read from offset 0 re-delivers the header
            get_metrics().counter(
                "stream.source.redelivered", table=self.table, what="header"
            ).inc()
            return True
        return False

    def _dedup(self, record_id: int) -> bool:
        """True when *record_id* was already delivered (drop the row)."""
        if record_id in self.seen_ids:
            get_metrics().counter(
                "stream.source.redelivered", table=self.table, what="record"
            ).inc()
            return True
        self.seen_ids.add(record_id)
        return False

    def _check_header(self, text: str) -> None:
        raise NotImplementedError


class RasFeedParser(_FeedParserBase):
    """Tailed RAS lines → :class:`RasLog` chunks (schema of Table II)."""

    table = "ras"

    def _check_header(self, text: str) -> None:
        names = [cell.rpartition(":")[0] for cell in text.split("|")]
        if tuple(names) != _DISK_COLUMNS:
            raise FeedParseError(f"unexpected RAS feed header {names}")

    def parse(self, lines: list[str]) -> RasLog:
        defects, rows = parse_ras_block(lines)
        verdicts = dict(defects)
        recids = rows.recids.tolist()
        keep: list[int] = []
        k = 0  # candidates are the lines without a verdict, in order
        for i, text in enumerate(lines):
            self.lines_seen += 1
            defect = verdicts.get(i)
            if defect is None:
                k += 1
            if self._take_header(text):
                continue
            if defect is not None:
                handle_bad_record(
                    self.policy, self.report, self.lines_seen, defect, text
                )
                continue
            if self._dedup(recids[k - 1]):
                continue
            keep.append(k - 1)
        if not keep:
            return empty_ras_log()
        return RasLog(rows.take(np.array(keep, dtype=np.int64)).to_frame())


class JobFeedParser(_FeedParserBase):
    """Tailed Cobalt job lines → :class:`JobLog` chunks (Table III)."""

    table = "job"

    def __init__(self, policy="quarantine", report=None):
        super().__init__(policy=policy, report=report)
        self._names: list[str] = []
        self._tags: list[str] = []

    def _check_header(self, text: str) -> None:
        try:
            names, tags = _parse_header(text, "|")
        except ValueError as exc:
            raise FeedParseError(f"unreadable job feed header: {exc}")
        if tuple(names) != JOB_COLUMNS:
            raise FeedParseError(f"unexpected job feed header {names}")
        self._names, self._tags = names, tags

    def restore(self, payload: dict) -> None:
        super().restore(payload)
        if self.header_text is not None:
            self._check_header(self.header_text)

    def parse(self, lines: list[str]) -> JobLog:
        raw_rows: list[list[str]] = []
        for text in lines:
            self.lines_seen += 1
            if self._take_header(text):
                continue
            parts = text.split("|")
            defect = structural_defect(text, len(parts), len(JOB_COLUMNS))
            if defect is None:
                for value, tag in zip(parts, self._tags):
                    defect = typed_cell_defect(value, tag)
                    if defect is not None:
                        break
            if defect is not None:
                handle_bad_record(
                    self.policy, self.report, self.lines_seen, defect, text
                )
                continue
            if self._dedup(int(parts[0])):
                continue
            raw_rows.append(parts)
        if not raw_rows:
            return empty_job_log()
        cols = list(zip(*raw_rows))
        data = {}
        for name, tag, col in zip(self._names, self._tags, cols):
            if tag == "str":
                col = [unescape_cell(v, "|") for v in col]
            data[name] = _PARSERS[tag](col)
        return JobLog(Frame({c: data[c] for c in JOB_COLUMNS}))


# ----------------------------------------------------------------------
# a feed: one tailer + one parser


#: the event-time key column each feed's watermark advances on
FEED_KEY = {"ras": "event_time", "job": "start_time"}


@dataclass(frozen=True)
class FeedChunk:
    """One poll's parsed outcome for a single feed."""

    table: str
    log: RasLog | JobLog
    status: str
    events: tuple[str, ...] = ()
    error: str | None = None

    @property
    def key_times(self) -> np.ndarray:
        return self.log.frame[FEED_KEY[self.table]]


class Feed:
    """A tailed, parsed, deduplicated live log feed."""

    def __init__(
        self,
        path: str | Path,
        table: str,
        policy: IngestPolicy | str | None = "quarantine",
        retry: RetryPolicy | None = None,
        fs=None,
        clock=time.monotonic,
        sleep=time.sleep,
        seed: int = 0,
    ):
        if table not in FEED_KEY:
            raise ValueError(f"unknown feed table {table!r}")
        self.table = table
        self.tailer = LogTailer(
            path, retry=retry, fs=fs, clock=clock, sleep=sleep, seed=seed
        )
        parser_cls = RasFeedParser if table == "ras" else JobFeedParser
        self.parser = parser_cls(policy=policy)

    @property
    def path(self) -> str:
        return self.tailer.state.path

    def poll(self) -> FeedChunk:
        result = self.tailer.poll()
        if result.status == FEED_DEGRADED:
            log = empty_ras_log() if self.table == "ras" else empty_job_log()
            return FeedChunk(
                table=self.table,
                log=log,
                status=FEED_DEGRADED,
                events=result.events,
                error=result.error,
            )
        log = self.parser.parse(result.lines)
        status = FEED_OK if len(log) else FEED_IDLE
        chunk = FeedChunk(
            table=self.table, log=log, status=status, events=result.events
        )
        if len(log):
            # per-feed progress for the live telemetry plane: monotone,
            # so replayed polls after a resume can't walk it backwards
            get_metrics().monotonic_gauge(
                "stream.feed.max_key", table=self.table
            ).set(float(chunk.key_times.max()))
        return chunk

    # -- durable state --------------------------------------------------

    def state_dict(self) -> dict:
        return {
            "tail": self.tailer.state.as_dict(),
            "parser": self.parser.state_dict(),
        }

    def restore(self, payload: dict) -> None:
        self.tailer.state = TailState.from_dict(payload["tail"])
        self.parser.restore(payload["parser"])
