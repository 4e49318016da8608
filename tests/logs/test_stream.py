"""Unit tests for reading whole RAS log files, and the growing-file rule."""

from collections import Counter

import pytest

from repro.logs import IngestError, RasLog, read_ras_log, write_ras_log
from repro.obs import Tracer, get_metrics
from repro.parallel import plan_chunks, scan_header
from repro.stream.source import Feed
from tests.logs.ras_reference import read_ras_log_by_line
from tests.logs.test_block_boundaries import _frame_state as frame_state
from tests.logs.test_ras import make_record


@pytest.fixture
def big_log(tmp_path):
    records = []
    for i in range(1, 1001):
        severity = "FATAL" if i % 10 == 0 else ("WARN" if i % 3 == 0 else "INFO")
        records.append(make_record(recid=i, t=1000.0 + i, severity=severity))
    path = tmp_path / "ras.log"
    write_ras_log(RasLog.from_records(records), path)
    return path


def parse_chunk_spans(path, workers):
    """The read's ``ingest.parse.chunk`` spans, and the log it gave."""
    tracer = Tracer()
    get_metrics().reset()
    with tracer.activate(root="run"):
        log = read_ras_log(path, workers=workers)
    return [s for s in tracer.spans if s.name == "ingest.parse.chunk"], log


class TestChunking:
    def test_chunks_cover_everything(self, big_log):
        _, data_start = scan_header(big_log)
        for workers in (1, 2, 3):
            spans, log = parse_chunk_spans(big_log, workers)
            assert len(log) == 1000
            # one chunk per planned byte range, together every data line
            assert len(spans) == len(
                plan_chunks(str(big_log), workers, data_start)
            ) == workers
            assert sum(s.rows for s in spans) == 1000

    def test_chunk_contents_typed(self, big_log):
        log = read_ras_log(big_log, workers=1)
        assert log.frame["event_time"].dtype.kind == "f"
        assert log.frame["recid"].dtype.kind == "i"

    def test_single_chunk_when_large(self, big_log):
        # one worker parses the whole file as one chunk, in this process
        (span,), log = parse_chunk_spans(big_log, 1)
        assert span.rows == len(log) == 1000
        assert span.note == ""

    def test_bad_header_rejected(self, tmp_path):
        p = tmp_path / "bad.log"
        p.write_text("nope:str\nx\n")
        with pytest.raises(ValueError, match="header"):
            read_ras_log(p)

    def test_bad_header_rejected_under_any_policy(self, tmp_path):
        # a wrong schema is not a per-record defect; no policy salvages it
        p = tmp_path / "bad.log"
        p.write_text("nope:str\nx\n")
        with pytest.raises(ValueError, match="header"):
            read_ras_log(p, policy="quarantine")


class TestDegenerateFiles:
    def test_empty_file_yields_typed_empty_chunk(self, tmp_path):
        p = tmp_path / "empty.log"
        p.write_text("")
        for workers in (1, 2):
            log = read_ras_log(p, workers=workers)
            assert len(log) == 0
            assert log.frame["event_time"].dtype.kind == "f"
            assert log.frame["recid"].dtype.kind == "i"

    def test_header_only_file_yields_typed_empty_chunk(self, tmp_path):
        full = tmp_path / "full.log"
        write_ras_log(RasLog.from_records([make_record()]), full)
        header = full.read_text().split("\n")[0]
        p = tmp_path / "header_only.log"
        p.write_text(header + "\n")
        for workers in (1, 2):
            log = read_ras_log(p, policy="quarantine", workers=workers)
            assert len(log) == 0
            assert log.frame["recid"].dtype.kind == "i"
            assert log.quarantine.total_rows == 0

    def test_empty_file_reads_as_empty_log(self, tmp_path):
        p = tmp_path / "empty.log"
        p.write_text("")
        log = read_ras_log(p)
        assert len(log) == 0
        assert log.frame["event_time"].dtype.kind == "f"


class TestPartialTail:
    """A growing file's unterminated final line is pending, not a defect:
    the tailer holds it back until its newline lands. The file reader
    takes EOF as the end of the data instead."""

    def _truncated_copy(self, big_log, tmp_path, cut=30):
        text = big_log.read_text()
        assert text.endswith("\n")
        p = tmp_path / "growing.log"
        p.write_text(text[:-1][:-cut])  # drop newline, then mid-line bytes
        return p, text

    def test_fragment_held_pending_under_strict(self, big_log, tmp_path):
        p, text = self._truncated_copy(big_log, tmp_path)
        feed = Feed(p, "ras", policy="strict")
        assert len(feed.poll().log) == 999
        fragment = text.rstrip("\n").rsplit("\n", 1)[1][:-30]
        assert p.read_bytes()[feed.tailer.state.offset:] == fragment.encode()
        assert feed.parser.lines_seen == 1000  # the header and 999 rows

    def test_fragment_not_in_quarantine_report(self, big_log, tmp_path):
        p, _ = self._truncated_copy(big_log, tmp_path)
        feed = Feed(p, "ras", policy="quarantine")
        assert len(feed.poll().log) == 999
        assert feed.parser.report.bad_rows == 0

    def test_without_holder_fragment_is_a_defect(self, big_log, tmp_path):
        p, _ = self._truncated_copy(big_log, tmp_path)
        for workers in (1, 2):
            with pytest.raises(IngestError):
                read_ras_log(p, policy="strict", workers=workers)

    def test_complete_file_leaves_holder_clear(self, big_log):
        feed = Feed(big_log, "ras", policy="strict")
        assert len(feed.poll().log) == 1000
        assert feed.tailer.state.offset == big_log.stat().st_size
        assert feed.poll().status == "idle"

    def test_unterminated_header_held_pending(self, big_log, tmp_path):
        header = big_log.read_text().split("\n", 1)[0]
        p = tmp_path / "header_partial.log"
        p.write_text(header[:-5])
        feed = Feed(p, "ras", policy="strict")
        assert len(feed.poll().log) == 0
        assert feed.tailer.state.offset == 0
        assert feed.parser.header_text is None

    def test_reread_after_newline_lands_is_whole(self, big_log, tmp_path):
        """The tailing loop: poll again once the writer has flushed."""
        text = big_log.read_text()
        p = tmp_path / "growing.log"
        p.write_text(text[:-40])
        feed = Feed(p, "ras", policy="strict")
        first = feed.poll().log
        assert len(first) == 999
        p.write_text(text)  # writer finishes the line
        second = feed.poll().log
        assert len(second) == 1
        assert second.frame["recid"].tolist() == [1000]
        assert feed.tailer.state.offset == len(text.encode())


class TestScans:
    """The FATAL-only read against the full read it projects."""

    def test_severity_counts_match_full_load(self, big_log):
        def severity_counts(log):
            return Counter(log.frame["severity"].tolist())

        want = severity_counts(read_ras_log_by_line(big_log))
        for workers in (1, 2, 3):
            assert severity_counts(read_ras_log(big_log, workers=workers)) == want

    def test_fatal_only_frame_equals_full_fatal(self, big_log):
        full = read_ras_log_by_line(big_log)
        for workers in (1, 2, 3):
            projected = read_ras_log(big_log, workers=workers, fatal_only=True)
            assert frame_state(projected.frame) == frame_state(
                full.fatal().frame
            )
            assert len(projected) == 100
            assert projected.num_records == len(full)
            assert projected.time_span() == full.time_span()

    def test_fatal_only_all_info_is_typed_empty_with_full_span(
        self, tmp_path
    ):
        from repro.logs import read_ras_log

        path = tmp_path / "clean.log"
        records = [
            make_record(recid=i, severity="INFO", t=50.0 + i)
            for i in range(1, 4)
        ]
        write_ras_log(RasLog.from_records(records), path)
        log = read_ras_log(path, fatal_only=True)
        assert len(log) == 0
        assert log.frame["event_time"].dtype.kind == "f"
        assert log.frame["recid"].dtype.kind == "i"
        assert log.frame.columns == read_ras_log(path).frame.columns
        assert log.num_records == 3
        assert log.time_span() == (51.0, 53.0)

    def test_streamed_fatal_feeds_pipeline(self, big_log, tmp_path):
        """The FATAL-only read is the full read as far as the pipeline
        can tell: same events, and the window of the whole log."""
        from repro.core import CoAnalysis
        from repro.core.equivalence import diff_results
        from repro.logs import JobLog, read_ras_log
        from tests.logs.test_job import make_job

        jobs = JobLog.from_records(
            [make_job(job_id=1, start=1200.0, end=1500.0)]
        )
        full = read_ras_log(big_log)
        projected = read_ras_log(big_log, fatal_only=True)
        want = CoAnalysis(study_workers=1).run(full, jobs)
        got = CoAnalysis(study_workers=1).run(projected, jobs)
        assert diff_results(got, want) == []
        assert (got.t_start, got.duration) == (1001.0, 999.0)
