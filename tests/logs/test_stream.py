"""Unit tests for streaming RAS log access."""

import pytest

from repro.logs import IngestPolicy, RasLog, write_ras_log
from repro.logs.stream import PartialTail, iter_ras_chunks
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


class TestChunking:
    def test_chunks_cover_everything(self, big_log):
        chunks = list(iter_ras_chunks(big_log, chunk_rows=128))
        assert sum(len(c) for c in chunks) == 1000
        assert len(chunks) == 8  # ceil(1000/128)

    def test_chunk_contents_typed(self, big_log):
        chunk = next(iter_ras_chunks(big_log, chunk_rows=10))
        assert chunk.frame["event_time"].dtype.kind == "f"
        assert chunk.frame["recid"].dtype.kind == "i"

    def test_single_chunk_when_large(self, big_log):
        chunks = list(iter_ras_chunks(big_log, chunk_rows=10_000))
        assert len(chunks) == 1

    def test_bad_chunk_rows(self, big_log):
        with pytest.raises(ValueError):
            next(iter_ras_chunks(big_log, chunk_rows=0))

    def test_bad_header_rejected(self, tmp_path):
        p = tmp_path / "bad.log"
        p.write_text("nope:str\nx\n")
        with pytest.raises(ValueError, match="header"):
            next(iter_ras_chunks(p))

    def test_bad_header_rejected_under_any_policy(self, tmp_path):
        # a wrong schema is not a per-record defect; no policy salvages it
        p = tmp_path / "bad.log"
        p.write_text("nope:str\nx\n")
        with pytest.raises(ValueError, match="header"):
            next(iter_ras_chunks(p, policy="quarantine"))


class TestDegenerateFiles:
    def test_empty_file_yields_typed_empty_chunk(self, tmp_path):
        p = tmp_path / "empty.log"
        p.write_text("")
        chunks = list(iter_ras_chunks(p))
        assert len(chunks) == 1
        assert len(chunks[0]) == 0
        assert chunks[0].frame["event_time"].dtype.kind == "f"
        assert chunks[0].frame["recid"].dtype.kind == "i"

    def test_header_only_file_yields_typed_empty_chunk(self, tmp_path):
        full = tmp_path / "full.log"
        write_ras_log(RasLog.from_records([make_record()]), full)
        header = full.read_text().split("\n")[0]
        p = tmp_path / "header_only.log"
        p.write_text(header + "\n")
        chunks = list(iter_ras_chunks(p))
        assert len(chunks) == 1
        assert len(chunks[0]) == 0
        assert chunks[0].frame["recid"].dtype.kind == "i"

    def test_empty_file_reads_as_empty_log(self, tmp_path):
        from repro.logs import read_ras_log

        p = tmp_path / "empty.log"
        p.write_text("")
        log = read_ras_log(p)
        assert len(log) == 0
        assert log.frame["event_time"].dtype.kind == "f"


class TestPartialTail:
    """A growing file's unterminated final line is pending, not a defect."""

    def _truncated_copy(self, big_log, tmp_path, cut=30):
        text = big_log.read_text()
        assert text.endswith("\n")
        p = tmp_path / "growing.log"
        p.write_text(text[:-1][:-cut])  # drop newline, then mid-line bytes
        return p, text

    def test_fragment_held_pending_under_strict(self, big_log, tmp_path):
        p, text = self._truncated_copy(big_log, tmp_path)
        tail = PartialTail()
        chunks = list(iter_ras_chunks(p, policy="strict", partial=tail))
        assert sum(len(c) for c in chunks) == 999
        assert tail.pending
        assert tail.line_no == 1001
        assert tail.text == text.rstrip("\n").rsplit("\n", 1)[1][:-30]

    def test_fragment_not_in_quarantine_report(self, big_log, tmp_path):
        from repro.logs.quarantine import IngestPolicy

        p, _ = self._truncated_copy(big_log, tmp_path)
        pol = IngestPolicy(mode="quarantine")
        report = pol.new_report(str(p))
        tail = PartialTail()
        list(iter_ras_chunks(p, policy=pol, report=report, partial=tail))
        assert tail.pending
        assert report.bad_rows == 0
        assert report.total_rows == 999

    def test_without_holder_fragment_is_a_defect(self, big_log, tmp_path):
        from repro.logs.quarantine import IngestError

        p, _ = self._truncated_copy(big_log, tmp_path)
        with pytest.raises(IngestError):
            list(iter_ras_chunks(p, policy="strict"))

    def test_complete_file_leaves_holder_clear(self, big_log):
        tail = PartialTail()
        tail.hold("stale", 99)  # a reused holder is reset per pass
        chunks = list(iter_ras_chunks(big_log, partial=tail))
        assert sum(len(c) for c in chunks) == 1000
        assert not tail.pending

    def test_unterminated_header_held_pending(self, big_log, tmp_path):
        header = big_log.read_text().split("\n", 1)[0]
        p = tmp_path / "header_partial.log"
        p.write_text(header[:-5])
        tail = PartialTail()
        chunks = list(iter_ras_chunks(p, partial=tail))
        assert len(chunks) == 1 and len(chunks[0]) == 0
        assert tail.pending and tail.line_no == 1

    def test_reread_after_newline_lands_is_whole(self, big_log, tmp_path):
        """The tailing loop: re-read from the same file once flushed."""
        text = big_log.read_text()
        p = tmp_path / "growing.log"
        p.write_text(text[:-40])
        tail = PartialTail()
        first = sum(len(c) for c in iter_ras_chunks(p, partial=tail))
        assert first == 999 and tail.pending
        p.write_text(text)  # writer finishes the line
        total = sum(len(c) for c in iter_ras_chunks(p, partial=tail))
        assert total == 1000
        assert not tail.pending


class TestScans:
    """The FATAL-only read against the full read it projects."""

    def test_severity_counts_match_full_load(self, big_log):
        from collections import Counter

        from repro.logs import read_ras_log

        streamed = Counter()
        for chunk in iter_ras_chunks(big_log, chunk_rows=100):
            streamed.update(chunk.severity_counts())
        full = read_ras_log(big_log).severity_counts()
        assert dict(streamed) == full

    def test_fatal_only_frame_equals_full_fatal(self, big_log):
        from repro.logs import read_ras_log

        full = read_ras_log(big_log)
        for chunk_rows in (1, 64, 100, 999, 1000, 100_000):
            report = IngestPolicy().new_report(str(big_log))
            chunks = list(iter_ras_chunks(
                big_log, chunk_rows=chunk_rows, report=report,
                fatal_only=True,
            ))
            full_chunks = list(iter_ras_chunks(big_log, chunk_rows=chunk_rows))
            # the same chunks close at the same rows; each is the FATAL part
            assert len(chunks) == len(full_chunks)
            for got, want in zip(chunks, full_chunks):
                assert frame_state(got.frame) == frame_state(
                    want.fatal().frame
                )
            assert report.clean_rows == len(full)
            assert report.clean_span == full.time_span()
        projected = read_ras_log(big_log, fatal_only=True)
        assert frame_state(projected.frame) == frame_state(full.fatal().frame)
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
