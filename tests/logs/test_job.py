"""Unit tests for the job log schema and container."""

import pytest

from repro.logs import JobLog, JobRecord
from repro.logs.job import empty_job_log


def make_job(job_id=1, executable="/home/u/a.out", start=1000.0, end=2000.0,
             queued=900.0, location="R00-M0", size=1, user="alice",
             project="climate"):
    return JobRecord(
        job_id=job_id,
        job_name=f"job{job_id}",
        executable=executable,
        queued_time=queued,
        start_time=start,
        end_time=end,
        location=location,
        user=user,
        project=project,
        size_midplanes=size,
    )


class TestRecord:
    def test_end_before_start_rejected(self):
        with pytest.raises(ValueError, match="before start"):
            make_job(start=2000.0, end=1000.0)

    def test_start_before_queue_rejected(self):
        with pytest.raises(ValueError, match="queued"):
            make_job(queued=1500.0, start=1000.0, end=2000.0)


class TestJobLog:
    @pytest.fixture
    def log(self):
        return JobLog.from_records(
            [
                make_job(job_id=2, start=2000.0, end=3000.0, executable="/a"),
                make_job(job_id=1, start=1000.0, end=2500.0, executable="/a"),
                make_job(job_id=3, start=2500.0, end=2600.0, executable="/b"),
            ]
        )

    def test_sorted_by_start(self, log):
        assert list(log.frame["job_id"]) == [1, 2, 3]

    def test_distinct_jobs(self, log):
        assert log.num_jobs == 3
        assert log.num_distinct_jobs() == 2

    def test_runtimes(self, log):
        assert list(log.runtimes()) == [1500.0, 1000.0, 100.0]

    def test_time_span(self, log):
        assert log.time_span() == (1000.0, 3000.0)

    def test_empty(self):
        log = empty_job_log()
        assert log.num_jobs == 0
        assert log.num_distinct_jobs() == 0

    def test_missing_column_rejected(self, log):
        with pytest.raises(ValueError, match="missing"):
            JobLog(log.frame.drop("user"))

    def test_roundtrip_records(self, log):
        again = JobLog.from_records(log.to_records())
        assert list(again.frame["job_id"]) == [1, 2, 3]
