"""Unit tests for log text io and BG/P timestamps."""

from datetime import datetime, timezone

import numpy as np
import pytest

from repro.logs import (
    JobLog,
    RasLog,
    format_bgp_time,
    parse_bgp_time,
    read_job_log,
    read_ras_log,
    write_job_log,
    write_ras_log,
)
from repro.logs.stream import parse_ras_block

from tests.logs.test_job import make_job
from tests.logs.test_ras import make_record


class TestBgpTime:
    def test_format_matches_table2_shape(self):
        s = format_bgp_time(1208185692.285324)
        # e.g. 2008-04-14-15.08.12.285324
        assert len(s) == 26
        assert s[4] == s[7] == s[10] == "-"
        assert s[13] == s[16] == s[19] == "."

    def test_roundtrip(self):
        """Exact: random microsecond instants from 1970 to 2100 read back
        as the very float ``strptime(...).timestamp()`` gives, through
        the per-line parser and the block kernel alike."""
        rng = np.random.default_rng(2011)
        micros = rng.integers(0, 4_102_444_800 * 10**6, size=2000).tolist()
        times = [us / 10**6 for us in micros]
        stamps = [format_bgp_time(t) for t in times]
        want = [
            datetime.strptime(s, "%Y-%m-%d-%H.%M.%S.%f")
            .replace(tzinfo=timezone.utc)
            .timestamp()
            for s in stamps
        ]
        assert want == times
        assert [parse_bgp_time(s) for s in stamps] == want
        lines = [
            f"{i}|M|KERNEL|s|E|INFO|{s}|R00-M0|SN|m"
            for i, s in enumerate(stamps)
        ]
        defects, rows = parse_ras_block(lines)
        assert defects == []
        assert rows.times.tolist() == want

    def test_paper_example(self):
        t = parse_bgp_time("2008-04-14-15.08.12.285324")
        assert format_bgp_time(t) == "2008-04-14-15.08.12.285324"


class TestRasRoundTrip:
    def test_file_roundtrip(self, tmp_path):
        log = RasLog.from_records(
            [make_record(recid=i, t=100.0 + i * 0.5) for i in range(5)]
        )
        p = tmp_path / "ras.log"
        write_ras_log(log, p)
        back = read_ras_log(p)
        assert len(back) == 5
        assert list(back.frame["recid"]) == list(log.frame["recid"])
        assert back.frame["event_time"][3] == pytest.approx(101.5, abs=1e-6)

    def test_bgp_timestamps_on_disk(self, tmp_path):
        log = RasLog.from_records([make_record(t=1231161600.0)])
        p = tmp_path / "ras.log"
        write_ras_log(log, p)
        assert "2009-01-05" in p.read_text()


class TestJobRoundTrip:
    def test_file_roundtrip(self, tmp_path):
        log = JobLog.from_records([make_job(job_id=i) for i in range(1, 4)])
        p = tmp_path / "job.log"
        write_job_log(log, p)
        back = read_job_log(p)
        assert back.num_jobs == 3
        assert list(back.frame["executable"]) == list(log.frame["executable"])


class TestForeignPlatformArtifacts:
    """Logs exported on other platforms carry BOMs and CRLF endings."""

    def test_ras_utf8_bom_tolerated(self, tmp_path):
        log = RasLog.from_records(
            [make_record(recid=i, t=100.0 + i) for i in range(3)]
        )
        p = tmp_path / "ras.log"
        write_ras_log(log, p)
        p.write_bytes(b"\xef\xbb\xbf" + p.read_bytes())
        back = read_ras_log(p)
        assert list(back.frame["recid"]) == [0, 1, 2]

    def test_ras_crlf_tolerated(self, tmp_path):
        log = RasLog.from_records(
            [make_record(recid=i, t=100.0 + i) for i in range(3)]
        )
        p = tmp_path / "ras.log"
        write_ras_log(log, p)
        p.write_bytes(p.read_bytes().replace(b"\n", b"\r\n"))
        back = read_ras_log(p)
        assert len(back) == 3
        assert back.frame["event_time"][2] == pytest.approx(102.0, abs=1e-6)

    def test_job_bom_and_crlf_tolerated(self, tmp_path):
        log = JobLog.from_records([make_job(job_id=i) for i in range(1, 4)])
        p = tmp_path / "job.log"
        write_job_log(log, p)
        p.write_bytes(
            b"\xef\xbb\xbf" + p.read_bytes().replace(b"\n", b"\r\n")
        )
        back = read_job_log(p)
        assert back.num_jobs == 3
        assert list(back.frame["executable"]) == list(log.frame["executable"])

