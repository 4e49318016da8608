"""Table III: the Cobalt job record.

Times the job-log reader on a written log file; prints one reproduced
record in the paper's card layout (Table III shows job 8935 on
R10-R11).
"""

from benchmarks.conftest import banner
from repro.logs.job import JobLog
from repro.logs.textio import read_job_log, write_job_log


def describe_job_record(frame_row: dict) -> str:
    """Render one job row in the vertical card layout of Table III."""
    lines = [
        f"Job ID          {frame_row['job_id']}",
        f"Job Name        {frame_row['job_name']}",
        f"Execution File  {frame_row['executable']}",
        f"Queuing Time    {frame_row['queued_time']}",
        f"Starting Time   {frame_row['start_time']}",
        f"End Time        {frame_row['end_time']}",
        f"Location        {frame_row['location']}",
        f"User            {frame_row['user']}",
        f"Project         {frame_row['project']}",
        f"Size(midplanes) {frame_row['size_midplanes']}",
    ]
    return "\n".join(lines)


def test_table3_job_record_roundtrip(benchmark, trace, tmp_path):
    path = tmp_path / "job.log"
    write_job_log(JobLog(trace.job_log.frame.head(5000)), path)
    parsed = benchmark(read_job_log, path)
    assert parsed.num_jobs == 5000

    banner("TABLE III: one reproduced job record (paper card layout)")
    # pick a multi-midplane job like the paper's R10-R11 example
    frame = trace.job_log.frame
    multi = frame.filter(frame["size_midplanes"] >= 4)
    row = multi.row(0) if multi.num_rows else frame.row(0)
    print(describe_job_record(row))
    assert row["location"]
    assert row["end_time"] >= row["start_time"]
