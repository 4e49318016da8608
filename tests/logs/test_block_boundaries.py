"""Defects pinned on the boundaries the block readers introduce.

The file reader classifies each byte-range chunk in batches of about
``_BATCH_CHARS`` bytes (one chunk at ``workers=1``, planned or forced
chunks otherwise), and the tailer sees a file one poll at a time, with
an unterminated final line pending. Fallback rows, duplicate recids and
out-of-order times placed right at those seams must give exactly what
the per-line reference readers give: the same frame bytes, quarantine
report, strict raise and abort point.
"""

from datetime import datetime, timedelta, timezone

import numpy as np
import pytest

from repro.logs import IngestAbortError, IngestError, IngestPolicy, RasLog
from repro.logs.ras import empty_ras_log
from repro.logs.stream import _DISK_COLUMNS
from repro.logs.textio import read_ras_log
from repro.parallel import parallel_read_ras_frame, scan_header
from repro.parallel.workers import iter_line_batches
from repro.stream.source import LogTailer, RasFeedParser

from tests.logs.ras_reference import LineRasFeedParser, read_ras_log_by_line

HEADER = "|".join(
    f"{name}:{'int' if name == 'recid' else 'str'}" for name in _DISK_COLUMNS
)
N_ROWS = 12_000  # ~1.2 MB: two batches

POLICIES = [
    pytest.param(IngestPolicy(mode="strict"), id="strict"),
    pytest.param(IngestPolicy(mode="quarantine"), id="quarantine"),
    pytest.param(IngestPolicy(mode="skip"), id="skip"),
    pytest.param(
        IngestPolicy(mode="quarantine", max_bad_records=2), id="max-records"
    ),
    pytest.param(
        IngestPolicy(mode="quarantine", max_bad_records=1), id="max-records-1"
    ),
]


def _stamp(i: int) -> str:
    t = datetime(2008, 4, 14, tzinfo=timezone.utc) + timedelta(seconds=i)
    return t.strftime("%Y-%m-%d-%H.%M.%S.%f")


def _row(recid: str, stamp: str, severity="FATAL", message="msg") -> str:
    return "|".join([
        recid, "KERN_0802", "KERNEL", "_bgp_unit", "KERN_PANIC", severity,
        stamp, "R00-M0", "SN1", message,
    ])


def _clean_rows(n: int) -> list[list[str]]:
    return [
        [str(100_000 + i), _stamp(i), "FATAL",
         "ddr error \\p rank 3" if i % 50 == 0 else "msg"]
        for i in range(n)
    ]


def _write(path, rows, terminate_last=True):
    text = "\n".join([HEADER] + [_row(*r) for r in rows])
    path.write_text(text + ("\n" if terminate_last else ""), encoding="utf-8")
    return path


def _first_batch_len(path) -> int:
    """Lines in the first batch of a chunk that starts at the data."""
    _, start = scan_header(path)
    return len(next(iter_line_batches(str(path), start, path.stat().st_size)))


@pytest.fixture(scope="module")
def seam(tmp_path_factory):
    """A two-batch file with defects straddling the batch boundary.

    Returns ``(path, rows, last)`` where ``last`` is the 0-based data
    index of the first batch's final line. Every edit keeps the line's
    length, so the boundary stays where the clean file put it.
    """
    tmp = tmp_path_factory.mktemp("seam")
    rows = _clean_rows(N_ROWS)
    last = _first_batch_len(_write(tmp / "clean.log", rows)) - 1
    assert 0 < last < N_ROWS - 6
    rows[last - 1][2] = "FATAX"  # unknown severity, last-but-one of batch 1
    recid = rows[last][0]
    rows[last][0] = recid[:-1] + chr(0xFF10 + int(recid[-1]))  # fallback
    rows[last + 1][0] = recid  # duplicate of the fallback row's recid
    rows[last + 2][1] = rows[last - 10][1]  # out of order
    rows[last + 3][1] = "2009-02-29-00.00.00.000000"  # no such day
    rows[last + 4][0] = rows[last - 2][0]  # escaped duplicate
    rows[last + 4][3] = "dup \\p escaped"
    path = _write(tmp / "seam.log", rows)
    assert _first_batch_len(path) == last + 1
    return path, rows, last


def _frame_state(frame):
    return {
        name: (
            frame[name].dtype.str,
            frame[name].tolist() if frame[name].dtype == object
            else frame[name].tobytes(),
        )
        for name in frame.columns
    }


def _report_state(report):
    return (
        report.total_rows,
        report.as_dict(),
        {
            d.value: [(r.line_no, r.text) for r in recs]
            for d, recs in report.samples.items()
        },
    )


def _error_state(exc):
    if isinstance(exc, IngestError):
        return ("ingest_error", exc.line_no, exc.defect, exc.text)
    return ("abort", str(exc), _report_state(exc.report))


def bounds_after(path, splits):
    """Chunk bounds cutting the data region after the given row counts."""
    _, start = scan_header(path)
    raw = path.read_bytes()
    ends = [start]
    while ends[-1] < len(raw):
        ends.append(raw.index(b"\n", ends[-1]) + 1)
    cuts = [start] + [ends[k] for k in splits] + [len(raw)]
    return list(zip(cuts[:-1], cuts[1:]))


def read_with_bounds(path, policy, bounds, workers=1, fatal_only=False):
    """``read_ras_log`` with forced chunk *bounds*: in this process at
    one worker, in a pool otherwise."""
    report = policy.new_report(str(path))
    frame = parallel_read_ras_frame(
        path, policy=policy, report=report, workers=workers,
        chunk_bounds=bounds, fatal_only=fatal_only,
    )
    if not frame.num_rows:
        frame = empty_ras_log().frame
    log = RasLog(frame)
    if fatal_only:
        log = RasLog(frame, records=report.clean_rows, span=report.clean_span)
    log.quarantine = None if policy.is_strict else report
    return log


def read_outcome(read):
    """Frame, report and raise of ``read()``, a ``read_ras_log``-like call."""
    try:
        log = read()
    except (IngestError, IngestAbortError) as exc:
        return None, None, _error_state(exc)
    report = None if log.quarantine is None else _report_state(log.quarantine)
    return _frame_state(log.frame), report, None


def reference_outcome(path, policy):
    return read_outcome(lambda: read_ras_log_by_line(path, policy))


class TestBatchBoundary:
    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize(
        "chunking", ["seam-1", "seam", "seam+1", "small", "default"]
    )
    def test_serial_matches_line_reference(self, seam, policy, chunking):
        """One reader at one, two and three workers, and on chunk seams
        forced around the batch seam, parsed in this process."""
        path, _, last = seam
        want = reference_outcome(path, policy)
        if chunking == "default":
            for workers in (1, 2, 3):
                got = read_outcome(
                    lambda: read_ras_log(path, policy=policy, workers=workers)
                )
                assert got == want, workers
            return
        # "seam" cuts a chunk after the batch's last line; "small" cuts
        # seven-line chunks across the defects on either side of it
        splits = {
            "seam-1": [last], "seam": [last + 1], "seam+1": [last + 2],
            "small": list(range(last - 13, last + 15, 7)),
        }[chunking]
        got = read_outcome(
            lambda: read_with_bounds(path, policy, bounds_after(path, splits))
        )
        assert got == want

    def test_quarantine_sees_every_seam_defect(self, seam):
        path, _, last = seam
        _, report, error = read_outcome(
            lambda: read_ras_log(path, policy=IngestPolicy(mode="quarantine"))
        )
        assert error is None
        first = last + 2  # physical line of data index 0 is 2
        assert report[1] == {
            "duplicate_recid": 2,
            "invalid_timestamp": 1,
            "out_of_order_time": 1,
            "unknown_severity": 1,
        }
        lines = sorted(
            line for recs in report[2].values() for line, _ in recs
        )
        assert lines == [first - 1, first + 1, first + 2, first + 3, first + 4]

    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("split", [0, 1, 2])
    def test_two_workers_match_line_reference(self, seam, policy, split):
        path, _, last = seam
        got = read_outcome(lambda: read_with_bounds(
            path, policy, bounds_after(path, [last + split]), workers=2
        ))
        assert got == reference_outcome(path, policy)

    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("split", [0, 1, 2])
    def test_tailer_matches_line_reference(self, seam, policy, split):
        path, _, last = seam
        lines = path.read_text(encoding="utf-8").split("\n")[:-1]
        cut = 1 + last + split
        polls = [lines[:cut], lines[cut:]]
        assert feed_outcome(RasFeedParser, policy, polls) == feed_outcome(
            LineRasFeedParser, policy, polls
        )


def feed_outcome(parser_cls, policy, polls):
    parser = parser_cls(policy=policy)
    frames, error = [], None
    try:
        for poll in polls:
            frames.append(_frame_state(parser.parse(poll).frame))
    except (IngestError, IngestAbortError) as exc:
        error = _error_state(exc)
    return (
        frames, error, _report_state(parser.report),
        parser.state_dict(),
    )


class TestPartialTail:
    """A growing file's unterminated final line stays pending in the
    tailer, unclassified, and is classified once its newline lands."""

    @pytest.mark.parametrize(
        "policy", [POLICIES[0], POLICIES[1], POLICIES[4]]
    )
    def test_pending_line_after_a_full_batch(self, seam, tmp_path, policy):
        """The held fragment is a duplicate right after the batch seam."""
        _, rows, last = seam
        path = _write(tmp_path / "growing.log", rows[: last + 2],
                      terminate_last=False)
        assert _first_batch_len(path) == last + 1
        self._assert_same(path, policy)

    @pytest.mark.parametrize("policy", POLICIES)
    def test_pending_line_within_a_batch(self, tmp_path, policy):
        rows = _clean_rows(30)
        rows[28][0] = rows[3][0]  # duplicate right before the fragment
        rows[29][1] = rows[0][1]  # pending fragment is out of order
        path = _write(tmp_path / "growing.log", rows, terminate_last=False)
        self._assert_same(path, policy)

    def _assert_same(self, path, policy):
        tailer = LogTailer(path)
        first = tailer.poll()
        fragment = path.read_text(encoding="utf-8").rsplit("\n", 1)[1]
        assert first.lines and fragment not in first.lines
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("\n")
        second = tailer.poll()
        assert second.lines == [fragment]
        polls = [first.lines, second.lines]
        got = feed_outcome(RasFeedParser, policy, polls)
        assert got == feed_outcome(LineRasFeedParser, policy, polls)
        # what the polls deliver is the whole file, read line by line
        assert sum(len(p) for p in polls) == len(
            path.read_text(encoding="utf-8").splitlines()
        )


def test_cursor_state_crosses_batches_for_recids_below_the_max(tmp_path):
    """A duplicate of a row two batches back, with a smaller recid than
    the batch before it, is still a duplicate."""
    rows = _clean_rows(N_ROWS * 2)
    rows[-1][0] = rows[5][0]
    path = _write(tmp_path / "long.log", rows)
    policy = IngestPolicy(mode="quarantine")
    want = reference_outcome(path, policy)
    for workers in (1, 2, 3):
        got = read_outcome(
            lambda: read_ras_log(path, policy=policy, workers=workers)
        )
        assert got == want, workers
    assert want[1][1] == {"duplicate_recid": 1}
    assert np.frombuffer(want[0]["recid"][1], dtype=np.int64).size == (
        2 * N_ROWS - 1
    )
