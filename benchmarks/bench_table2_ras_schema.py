"""Table II: the RAS event record.

Round-trips records through the Table II text layout (a written log
file read back by the RAS log reader) and times parsing throughput;
prints one reproduced record in the paper's card format.
"""

from benchmarks.conftest import banner
from repro.logs.ras import RasLog
from repro.logs.textio import format_bgp_time, read_ras_log, write_ras_log


def describe_ras_record(frame_row: dict) -> str:
    """Render one RAS row in the vertical card layout of Table II."""
    lines = [
        f"RECID        {frame_row['recid']}",
        f"MSG_ID       {frame_row['msg_id']}",
        f"COMPONENT    {frame_row['component']}",
        f"SUBCOMPONENT {frame_row['subcomponent']}",
        f"ERRCODE      {frame_row['errcode']}",
        f"SEVERITY     {frame_row['severity']}",
        f"EVENT_TIME   {format_bgp_time(frame_row['event_time'])}",
        f"LOCATION     {frame_row['location']}",
        f"SERIALNUMBER {frame_row['serialnumber']}",
        f"MESSAGE      {frame_row['message']}",
    ]
    return "\n".join(lines)


def test_table2_ras_record_roundtrip(benchmark, trace, tmp_path):
    head = RasLog(trace.ras_log.frame.head(5000))
    path = tmp_path / "ras.log"
    write_ras_log(head, path)
    parsed = benchmark(read_ras_log, path)
    assert parsed.num_records == 5000

    banner("TABLE II: one reproduced RAS record (paper card layout)")
    fatal = trace.ras_log.fatal()
    print(describe_ras_record(fatal.frame.row(0)))
    row = fatal.frame.row(0)
    for field in ("recid", "msg_id", "component", "subcomponent", "errcode",
                  "severity", "event_time", "location", "serialnumber",
                  "message"):
        assert field in row
