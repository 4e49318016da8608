"""The tailing source: byte-offset polls, rotation/truncation
fingerprints, retry/backoff/deadline behavior, and exactly-once
parsing over at-least-once delivery."""

import errno
import os

import pytest

from repro.core.equivalence import frames_equal
from repro.faults.io import FaultKind, FaultPlan, FaultyFS, IOFault
from repro.logs import read_job_log, read_ras_log, write_job_log, write_ras_log
from repro.stream.source import (
    FEED_DEGRADED,
    FEED_IDLE,
    FEED_OK,
    Feed,
    LogTailer,
    RetryExhausted,
    RetryPolicy,
    split_complete_lines,
    with_retry,
)
from tests.stream.conftest import make_jobs, make_ras

import numpy as np


class VirtualTime:
    """Injectable clock+sleep: sleeping advances time, nothing blocks."""

    def __init__(self):
        self.now = 0.0
        self.naps = []

    def clock(self):
        return self.now

    def sleep(self, seconds):
        self.naps.append(seconds)
        self.now += seconds


NO_JITTER = dict(jitter=0.0, base_delay_s=0.01)


class TestSplitCompleteLines:
    def test_terminated_lines_and_tail(self):
        lines, tail = split_complete_lines(b"a\nb\nhalf")
        assert lines == [b"a", b"b"]
        assert tail == b"half"

    def test_no_newline_is_all_tail(self):
        assert split_complete_lines(b"partial") == ([], b"partial")

    def test_empty(self):
        assert split_complete_lines(b"") == ([], b"")

    def test_trailing_newline_leaves_no_tail(self):
        lines, tail = split_complete_lines(b"a\nb\n")
        assert lines == [b"a", b"b"]
        assert tail == b""


class TestRetryPolicy:
    def test_retryable_errnos(self):
        policy = RetryPolicy()
        assert policy.is_retryable(OSError(errno.EIO, "io"))
        assert policy.is_retryable(OSError(errno.ENOENT, "gone"))
        assert not policy.is_retryable(OSError(errno.EACCES, "denied"))
        assert not policy.is_retryable(ValueError("nope"))
        exhausted = RetryExhausted(3, 1.0, OSError(errno.EIO, "io"))
        assert not policy.is_retryable(exhausted)  # never retry the wrapper

    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(
            base_delay_s=0.1, multiplier=2.0, max_delay_s=0.5, jitter=0.0
        )
        rng = np.random.default_rng(0)
        delays = [policy.delay_s(k, rng) for k in range(1, 6)]
        assert delays == [0.1, 0.2, 0.4, 0.5, 0.5]

    def test_zero_attempts_rejected(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)

    def test_recovers_within_attempt_limit(self):
        """N < max_attempts transient failures: the call succeeds."""
        vt = VirtualTime()
        failures = iter([OSError(errno.EIO, "io")] * 3)

        def flaky():
            exc = next(failures, None)
            if exc is not None:
                raise exc
            return "payload"

        result = with_retry(
            flaky,
            RetryPolicy(max_attempts=5, **NO_JITTER),
            np.random.default_rng(0),
            clock=vt.clock,
            sleep=vt.sleep,
        )
        assert result == "payload"
        assert len(vt.naps) == 3  # one backoff per transient failure

    def test_attempt_cap_raises_retry_exhausted(self):
        vt = VirtualTime()

        def always():
            raise OSError(errno.EIO, "io")

        with pytest.raises(RetryExhausted) as err:
            with_retry(
                always,
                RetryPolicy(max_attempts=3, **NO_JITTER),
                np.random.default_rng(0),
                clock=vt.clock,
                sleep=vt.sleep,
            )
        assert err.value.attempts == 3
        assert isinstance(err.value.last, OSError)

    def test_deadline_beats_attempt_cap(self):
        vt = VirtualTime()

        def always():
            raise OSError(errno.EIO, "io")

        with pytest.raises(RetryExhausted) as err:
            with_retry(
                always,
                RetryPolicy(
                    max_attempts=100,
                    base_delay_s=1.0,
                    jitter=0.0,
                    deadline_s=2.5,
                ),
                np.random.default_rng(0),
                clock=vt.clock,
                sleep=vt.sleep,
            )
        # slept 1s+2s after attempts 1 and 2; attempt 3 sees 3.0s >= 2.5s
        assert err.value.attempts == 3

    def test_non_retryable_propagates_unwrapped(self):
        def denied():
            raise PermissionError(errno.EACCES, "denied")

        with pytest.raises(PermissionError):
            with_retry(
                denied,
                RetryPolicy(**NO_JITTER),
                np.random.default_rng(0),
            )


@pytest.fixture()
def ras_file(tmp_path):
    path = tmp_path / "ras.psv"
    write_ras_log(make_ras(60, seed=3), path)
    return path


def tailer(path, **kw):
    vt = VirtualTime()
    kw.setdefault("retry", RetryPolicy(max_attempts=3, **NO_JITTER))
    return LogTailer(path, clock=vt.clock, sleep=vt.sleep, **kw)


class TestLogTailer:
    def test_poll_reads_then_idles(self, ras_file):
        t = tailer(ras_file)
        first = t.poll()
        assert first.status == FEED_OK
        assert len(first.lines) == 61  # header + 60 records
        assert t.poll().status == FEED_IDLE

    def test_growth_delivers_only_new_lines(self, ras_file):
        t = tailer(ras_file)
        t.poll()
        with open(ras_file, "a", encoding="utf-8") as fh:
            fh.write("new-line-one\nnew-line-two\n")
        poll = t.poll()
        assert poll.lines == ["new-line-one", "new-line-two"]

    def test_unterminated_tail_stays_pending(self, ras_file):
        t = tailer(ras_file)
        t.poll()
        with open(ras_file, "a", encoding="utf-8") as fh:
            fh.write("half-a-rec")
        assert t.poll().lines == []
        with open(ras_file, "a", encoding="utf-8") as fh:
            fh.write("ord\n")
        assert t.poll().lines == ["half-a-record"]

    def test_missing_file_is_idle_not_error(self, tmp_path):
        t = tailer(tmp_path / "not-yet.psv")
        poll = t.poll()
        assert poll.status == FEED_IDLE
        assert poll.error is None

    def test_rotation_detected_and_reread(self, ras_file):
        t = tailer(ras_file)
        n = len(t.poll().lines)
        # copytruncate-style rotation: same bytes, fresh inode
        tmp = ras_file.with_suffix(".tmp")
        tmp.write_bytes(ras_file.read_bytes())
        os.replace(tmp, ras_file)
        poll = t.poll()
        assert "rotated" in poll.events
        assert len(poll.lines) == n  # re-read from offset zero
        assert t.state.rotations == 1
        assert t.state.generation == 1

    def test_truncation_resets_offset(self, ras_file):
        t = tailer(ras_file)
        t.poll()
        text = ras_file.read_text().splitlines(keepends=True)
        ras_file.write_text("".join(text[:10]))
        poll = t.poll()
        assert "truncated" in poll.events
        assert len(poll.lines) == 10
        assert t.state.truncations == 1

    def test_transient_eio_recovers_without_loss(self, ras_file):
        """One EIO under a 3-attempt policy: the poll still succeeds."""
        fs = FaultyFS(
            FaultPlan([IOFault(op_index=1, kind=FaultKind.EIO)]),
            sleep=lambda s: None,
        )
        t = tailer(ras_file, fs=fs)
        poll = t.poll()
        assert poll.status == FEED_OK
        assert len(poll.lines) == 61

    def test_persistent_eio_degrades_and_keeps_offset(self, ras_file):
        """Deadline/attempt exhaustion: DEGRADED, cursor untouched, and
        the next healthy poll delivers everything — zero data loss."""
        fs = FaultyFS(
            FaultPlan(
                [
                    IOFault(op_index=1, kind=FaultKind.EIO),
                    IOFault(op_index=2, kind=FaultKind.EIO),
                ]
            ),
            sleep=lambda s: None,
        )
        t = tailer(ras_file, fs=fs, retry=RetryPolicy(max_attempts=2, **NO_JITTER))
        degraded = t.poll()
        assert degraded.status == FEED_DEGRADED
        assert degraded.error and "2 attempts" in degraded.error
        assert t.state.offset == 0  # nothing consumed, nothing skipped
        recovered = t.poll()
        assert recovered.status == FEED_OK
        assert len(recovered.lines) == 61

    def test_short_reads_never_split_records(self, ras_file):
        """Injected short reads change chunking, not content."""
        plan = FaultPlan(
            [
                IOFault(op_index=i, kind=FaultKind.SHORT_READ, payload=13)
                for i in (3, 4, 5, 6)
            ]
        )
        t = tailer(ras_file, fs=FaultyFS(plan, sleep=lambda s: None))
        clean = tailer(ras_file)
        assert t.poll().lines == clean.poll().lines


class TestFeeds:
    def test_ras_feed_roundtrips_file(self, ras_file):
        feed = Feed(ras_file, "ras")
        chunk = feed.poll()
        assert chunk.status == FEED_OK
        assert frames_equal(chunk.log.frame, read_ras_log(ras_file).frame)

    def test_job_feed_roundtrips_file(self, tmp_path):
        ras = make_ras(80, seed=5)
        jobs = make_jobs(ras, 12, seed=6)
        path = tmp_path / "job.psv"
        write_job_log(jobs, path)
        feed = Feed(path, "job")
        chunk = feed.poll()
        assert frames_equal(chunk.log.frame, read_job_log(path).frame)

    def test_rotation_reread_is_deduplicated(self, ras_file):
        feed = Feed(ras_file, "ras")
        first = feed.poll()
        tmp = ras_file.with_suffix(".tmp")
        tmp.write_bytes(ras_file.read_bytes())
        os.replace(tmp, ras_file)
        again = feed.poll()
        assert len(first.log) == 60
        assert len(again.log) == 0  # every re-delivered recid dropped
        assert again.status == FEED_IDLE

    def test_bad_line_quarantined_not_fatal(self, ras_file):
        feed = Feed(ras_file, "ras", policy="quarantine")
        feed.poll()
        with open(ras_file, "a", encoding="utf-8") as fh:
            fh.write("garbled|nonsense\n")
        chunk = feed.poll()
        assert chunk.status == FEED_IDLE
        assert feed.parser.report.bad_rows == 1

    def test_state_roundtrip_resumes_mid_file(self, tmp_path):
        ras = make_ras(100, seed=9)
        path = tmp_path / "ras.psv"
        lines = []
        write_ras_log(ras, path)
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:51]))

        feed = Feed(path, "ras")
        head = feed.poll().log
        state = feed.state_dict()

        path.write_text("".join(lines))  # the feed keeps growing
        resumed = Feed(path, "ras")
        resumed.restore(state)
        tail = resumed.poll().log
        assert len(head) + len(tail) == 100
        assert not set(head.frame["recid"]) & set(tail.frame["recid"])

    def test_degraded_poll_carries_empty_log(self, ras_file):
        fs = FaultyFS(
            FaultPlan(
                [
                    IOFault(op_index=1, kind=FaultKind.EIO),
                    IOFault(op_index=2, kind=FaultKind.EIO),
                ]
            ),
            sleep=lambda s: None,
        )
        vt = VirtualTime()
        feed = Feed(
            ras_file,
            "ras",
            retry=RetryPolicy(max_attempts=2, **NO_JITTER),
            fs=fs,
            clock=vt.clock,
            sleep=vt.sleep,
        )
        chunk = feed.poll()
        assert chunk.status == FEED_DEGRADED
        assert len(chunk.log) == 0
        assert chunk.error is not None
