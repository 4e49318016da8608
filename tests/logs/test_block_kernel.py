"""The block kernel against the per-line checks it stands in for.

``parse_ras_block`` must give, for any list of lines, exactly what
``classify_ras_fields`` gives line by line: the same defect class for a
rejected line and, for an accepted one, the same cells, the same recid
and the same event-time float, bit for bit. The file reader built on it
must in turn match the per-line reference reader in
``tests.logs.ras_reference``, whatever its chunking.
"""

from datetime import datetime, timedelta, timezone

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.logs import IngestPolicy
from repro.logs.ras import COMPONENTS, SEVERITIES
from repro.logs.stream import (
    _DISK_COLUMNS,
    classify_ras_fields,
    parse_ras_block,
)
from repro.logs.textio import read_ras_log
from repro.parallel import scan_header

from tests.logs.ras_reference import read_ras_log_by_line
from tests.logs.test_block_boundaries import read_with_bounds

HEADER = "|".join(
    f"{name}:{'int' if name == 'recid' else 'str'}" for name in _DISK_COLUMNS
)
#: the disk-layout field behind each ``RasRows.cells`` column: every
#: field but the recid and the timestamp, which the kernel keeps typed only
CELL_COLUMNS = [
    j for j, name in enumerate(_DISK_COLUMNS)
    if name not in ("recid", "event_time_bgp")
]
BASE = [
    "7", "KERN_0001", "KERNEL", "sub", "_bgp_err_ddr", "FATAL",
    "2008-04-14-15.08.12.285324", "R00-M0", "SN1", "ddr error",
]


def line_with(**cells) -> str:
    row = list(BASE)
    for name, value in cells.items():
        row[_DISK_COLUMNS.index(name)] = value
    return "|".join(row)


def assert_kernel_matches(lines: list[str]) -> None:
    defects, rows = parse_ras_block(lines)
    want_defects = []
    want_rows = []
    for i, text in enumerate(lines):
        defect, parsed = classify_ras_fields(text)
        if defect is not None:
            want_defects.append((i, defect))
        else:
            want_rows.append((i, *parsed))
    assert defects == want_defects
    assert rows.lines.tolist() == [r[0] for r in want_rows]
    assert rows.lines.dtype == np.int64
    assert rows.recids.dtype == np.int64
    assert rows.times.dtype == np.float64
    assert rows.recids.tolist() == [r[2] for r in want_rows]
    want_times = np.array([r[3] for r in want_rows], dtype=np.float64)
    assert rows.times.tobytes() == want_times.tobytes()
    assert len(rows.cells) == len(CELL_COLUMNS) == 8
    for j, col in zip(CELL_COLUMNS, rows.cells):
        assert col.dtype == object
        assert list(col) == [r[1][j] for r in want_rows]


# ----------------------------------------------------------------------
# cells the fast path must either decide exactly or hand to the fallback

EDGE_CELLS = [
    # leap days, the last microsecond, leap seconds, short fields
    ("event_time_bgp", "2008-02-29-00.00.00.000000"),
    ("event_time_bgp", "2009-02-29-00.00.00.000000"),
    ("event_time_bgp", "2000-02-29-12.00.00.000000"),
    ("event_time_bgp", "1900-02-29-12.00.00.000000"),
    ("event_time_bgp", "2008-12-31-23.59.59.999999"),
    ("event_time_bgp", "2008-04-14-15.08.60.000000"),
    ("event_time_bgp", "2008-04-14-24.00.00.000000"),
    ("event_time_bgp", "2008-04-14-23.60.00.000000"),
    ("event_time_bgp", "2008-4-14-15.08.12.285324"),
    ("event_time_bgp", "2008-04-31-15.08.12.285324"),
    ("event_time_bgp", "2008-13-01-15.08.12.285324"),
    ("event_time_bgp", "2008-00-01-15.08.12.285324"),
    ("event_time_bgp", "2008-04-00-15.08.12.285324"),
    ("event_time_bgp", "0000-01-01-00.00.00.000000"),
    ("event_time_bgp", "0001-01-01-00.00.00.000000"),
    ("event_time_bgp", "1969-12-31-23.59.59.999999"),
    ("event_time_bgp", "1970-01-01-00.00.00.000001"),
    ("event_time_bgp", "2255-06-05-23.47.34.740992"),
    ("event_time_bgp", "9999-12-31-23.59.59.999999"),
    # beyond 2**53 microseconds int64 -> float64 -> / 1e6 rounds twice
    ("event_time_bgp", "7454-05-04-22.42.38.999029"),
    ("event_time_bgp", "0422-03-02-03.52.59.882220"),
    ("event_time_bgp", "２００８-04-14-15.08.12.285324"),
    ("event_time_bgp", "2008-04-14-15.08.12.28532"),
    ("event_time_bgp", "2008-04-14 15.08.12.285324"),
    ("event_time_bgp", "2008-04-14-15.08.12.285324 "),
    ("event_time_bgp", "2008-04-14-15:08:12.285324"),
    ("event_time_bgp", "2008-04-14-15.08.1\\p.285324"),
    ("event_time_bgp", ""),
    # recids int() takes that are not plain ASCII digits
    ("recid", "+7"),
    ("recid", " 7"),
    ("recid", "7 "),
    ("recid", "1_0"),
    ("recid", "٣"),
    ("recid", "-5"),
    ("recid", "１２"),
    ("recid", "²"),
    ("recid", "007"),
    ("recid", "0"),
    ("recid", "123456789012345678"),
    ("recid", "1234567890123456789"),
    ("recid", "9223372036854775807"),
    ("recid", "9223372036854775808"),
    ("recid", "-9223372036854775808"),
    ("recid", "-9223372036854775809"),
    ("recid", "99999999999999999999"),
    ("recid", ""),
    ("recid", "x7"),
    ("recid", "7\\p"),
    # vocabularies, raw and escaped
    ("severity", "fatal"),
    ("severity", "FATAL "),
    ("severity", "FA\\pTAL"),
    ("component", "kernel"),
    ("component", "KERNEL\\n"),
    ("errcode", "bad code"),
    ("errcode", ""),
    ("errcode", "ok.code-1"),
    ("errcode", "abc\\n"),
    ("errcode", "a\\pb"),
    ("errcode", "ｆｕｌｌ"),
    # free text with escapes and stray characters
    ("message", "a\\pb\\\\c\\nd\\re\\qf"),
    ("message", "trailing backslash \\"),
    ("message", "carriage\rreturn"),
    ("location", "R\\p00"),
    ("msg_id", ""),
]


@pytest.mark.parametrize(("column", "value"), EDGE_CELLS)
def test_edge_cell_matches_per_line(column, value):
    assert_kernel_matches([line_with(**{column: value}), line_with()])


@pytest.mark.parametrize(
    "line",
    [
        "",
        "   ",
        "\t",
        "|||||||||",
        line_with() + "|extra",
        "|".join(BASE[:9]),
        line_with(message="bad \ufffd byte"),
        "\ufeff" + line_with(),
        line_with(recid="\ufeff7"),
    ],
)
def test_edge_line_matches_per_line(line):
    assert_kernel_matches([line_with(), line, line_with(recid="8")])


def test_empty_block():
    defects, rows = parse_ras_block([])
    assert defects == [] and len(rows) == 0
    assert [c.dtype for c in rows.cells] == [np.dtype(object)] * 8


# ----------------------------------------------------------------------
# generated lines

_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)


def _stamp(micros: int) -> str:
    return (_EPOCH + timedelta(microseconds=micros)).strftime(
        "%Y-%m-%d-%H.%M.%S.%f"
    )


stamps = st.one_of(
    st.integers(0, 4_102_444_800 * 10**6 - 1).map(_stamp),
    st.sampled_from([c[1] for c in EDGE_CELLS if c[0] == "event_time_bgp"]),
    st.text(alphabet="0123456789-.:２ ", min_size=20, max_size=28),
)
recids = st.one_of(
    st.integers(0, 10**19).map(str),
    st.integers(0, 999).map(lambda i: f"{i:05d}"),
    st.sampled_from([c[1] for c in EDGE_CELLS if c[0] == "recid"]),
)
free_text = st.lists(
    st.sampled_from(
        list("abcXYZ09 _.-\\\r\ufffdé中") + ["\\p", "\\n", "\\\\"]
    ),
    max_size=12,
).map("".join)
severities = st.one_of(
    st.sampled_from(SEVERITIES), st.sampled_from(["info", "", "FAT\\pAL"])
)
components = st.one_of(
    st.sampled_from(COMPONENTS), st.sampled_from(["kernel", "", "M\\nC"])
)
errcodes = st.one_of(
    st.from_regex(r"[A-Za-z0-9_.\-]{1,12}", fullmatch=True),
    free_text,
)
rows = st.tuples(
    recids, free_text, components, free_text, errcodes, severities,
    stamps, free_text, free_text, free_text,
).map("|".join)
damaged = st.one_of(
    rows,
    rows.map(lambda line: line + "|tail"),
    rows.map(lambda line: line.rsplit("|", 1)[0]),
    st.sampled_from(["", "  ", "\ufeff", "no separators at all"]),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(rows, damaged), max_size=30))
@example([line_with(), line_with(recid="+7"), line_with(recid="٣")])
def test_kernel_matches_per_line(lines):
    assert_kernel_matches(lines)


# ----------------------------------------------------------------------
# the file reader on files: endings, BOM, batches, cross-record checks


def _read(read):
    log = read()
    report = log.quarantine
    samples = {
        d: [(r.line_no, r.text) for r in recs]
        for d, recs in report.samples.items()
    }
    return log.frame, (report.total_rows, report.as_dict(), samples)


def _frames_identical(a, b):
    assert a.columns == b.columns
    for col in a.columns:
        assert a[col].dtype == b[col].dtype, col
        if a[col].dtype == object:
            assert list(a[col]) == list(b[col]), col
        else:
            assert a[col].tobytes() == b[col].tobytes(), col


def _line_bounds(path, ending):
    """One chunk per data line: a cut after every line ending."""
    raw = path.read_bytes()
    cuts = [scan_header(path)[1]]
    while cuts[-1] < len(raw):
        cuts.append(raw.index(ending.encode(), cuts[-1]) + len(ending))
    return list(zip(cuts[:-1], cuts[1:]))


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(1, 40),
            st.integers(0, 50),
            st.sampled_from(["ok", "ok", "ok", "bad_time", "plus", "garble"]),
        ),
        max_size=40,
    ),
    st.sampled_from(["\n", "\r\n", "\r"]),
    st.booleans(),
    st.integers(1, 3),
)
def test_reader_matches_line_reference(tmp_path_factory, spec, ending, bom,
                                       workers):
    """Duplicates, time regressions and fallback rows, any line ending,
    at any worker count and with a chunk seam after every line."""
    lines = [HEADER]
    for recid, second, kind in spec:
        cells = {
            "recid": str(recid),
            "event_time_bgp": f"2008-04-14-15.08.{second % 60:02d}.000000",
        }
        if kind == "bad_time":
            cells["event_time_bgp"] = "2009-02-29-00.00.00.000000"
        elif kind == "plus":
            cells["recid"] = f"+{recid}"
        elif kind == "garble":
            cells["message"] = "a|b"
        lines.append(line_with(**cells))
    path = tmp_path_factory.mktemp("kernel") / "ras.log"
    data = ending.join(lines) + ending
    path.write_bytes((b"\xef\xbb\xbf" if bom else b"") + data.encode())
    policy = IngestPolicy(mode="quarantine")
    want, want_report = _read(lambda: read_ras_log_by_line(path, policy))
    for read in (
        lambda: read_ras_log(path, policy=policy, workers=workers),
        lambda: read_with_bounds(path, policy, _line_bounds(path, ending)),
    ):
        got, got_report = _read(read)
        assert got_report == want_report
        _frames_identical(got, want)


def test_recid_beyond_int64_is_quarantined(tmp_path):
    """A recid the int64 column cannot hold is a bad field, not a crash."""
    path = tmp_path / "ras.log"
    path.write_text(
        "\n".join([HEADER, line_with(recid="9223372036854775808"),
                   line_with(recid="8")]) + "\n",
        encoding="utf-8",
    )
    policy = IngestPolicy(mode="quarantine")
    for read in (read_ras_log, read_ras_log_by_line):
        log = read(path, policy=policy)
        assert log.frame["recid"].tolist() == [8]
        assert log.quarantine.as_dict() == {"bad_field": 1}
