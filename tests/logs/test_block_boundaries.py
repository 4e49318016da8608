"""Defects pinned on the boundaries the block readers introduce.

The serial reader classifies a file in ``readlines`` batches of
``_BATCH_CHARS`` characters and yields ``chunk_rows``-row chunks, the
pool workers split it into byte ranges, and the tailer sees it one poll
at a time. Fallback rows, duplicate recids and out-of-order times placed
right at those seams — and on a ``PartialTail`` pending line — must give
exactly what the per-line reference readers give: the same chunks,
frame bytes, quarantine report, strict raise and abort point.
"""

from datetime import datetime, timedelta, timezone

import numpy as np
import pytest

from repro.frame import concat
from repro.logs import IngestAbortError, IngestError, IngestPolicy
from repro.logs.stream import (
    _BATCH_CHARS,
    _DISK_COLUMNS,
    PartialTail,
    iter_ras_chunks,
)
from repro.parallel import parallel_read_ras_frame, scan_header
from repro.stream.source import RasFeedParser

from tests.logs.ras_reference import LineRasFeedParser, iter_ras_chunks_by_line

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
    with open(path, "r", encoding="utf-8-sig", errors="replace") as fh:
        fh.readline()
        return len(fh.readlines(_BATCH_CHARS))


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


def serial_outcome(reader, path, policy, chunk_rows=100_000, partial=None):
    report = policy.new_report(str(path))
    sizes, frames, error = [], [], None
    try:
        for chunk in reader(path, chunk_rows=chunk_rows, policy=policy,
                            report=report, partial=partial):
            sizes.append((len(chunk), report.total_rows))
            frames.append(chunk.frame)
    except (IngestError, IngestAbortError) as exc:
        error = _error_state(exc)
    pending = None if partial is None else (partial.text, partial.line_no)
    frame = _frame_state(concat(frames)) if frames else None
    return sizes, frame, _report_state(report), error, pending


def _reference_frame_outcome(path, policy):
    sizes, frame, report, error, _ = serial_outcome(
        iter_ras_chunks_by_line, path, policy
    )
    return frame if error is None else None, report, error


class TestBatchBoundary:
    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize(
        "chunking", ["seam-1", "seam", "seam+1", "small", "default"]
    )
    def test_serial_matches_line_reference(self, seam, policy, chunking):
        path, _, last = seam
        # the "seam" sizes end a chunk on the lines around the batch seam
        # (one row before it is bad, so chunk k ends on line k + 1)
        chunk_rows = {
            "seam-1": last - 1, "seam": last, "seam+1": last + 1,
            "small": 7, "default": 100_000,
        }[chunking]
        got = serial_outcome(iter_ras_chunks, path, policy, chunk_rows)
        want = serial_outcome(
            iter_ras_chunks_by_line, path, policy, chunk_rows
        )
        assert got == want

    def test_quarantine_sees_every_seam_defect(self, seam):
        path, _, last = seam
        _, _, report, error, _ = serial_outcome(
            iter_ras_chunks, path, IngestPolicy(mode="quarantine")
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
        _, start = scan_header(path)
        raw = path.read_bytes()
        cut = start
        for _ in range(last + split):
            cut = raw.index(b"\n", cut) + 1
        report = policy.new_report(str(path))
        try:
            frame = parallel_read_ras_frame(
                path, policy=policy, report=report, workers=2,
                chunk_bounds=[(start, cut), (cut, len(raw))],
            )
            got = (_frame_state(frame), _report_state(report), None)
        except (IngestError, IngestAbortError) as exc:
            got = (None, _report_state(report), _error_state(exc))
        assert got == _reference_frame_outcome(path, policy)

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
    @pytest.mark.parametrize(
        "policy", [POLICIES[0], POLICIES[1], POLICIES[4]]
    )
    def test_pending_line_after_a_full_batch(self, seam, tmp_path, policy):
        """The held fragment is the whole second batch: a duplicate
        that must stay pending, then classify once its newline lands."""
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
        for chunk_rows in (5, 100_000):
            got_tail, want_tail = PartialTail(), PartialTail()
            got = serial_outcome(
                iter_ras_chunks, path, policy, chunk_rows, got_tail
            )
            want = serial_outcome(
                iter_ras_chunks_by_line, path, policy, chunk_rows, want_tail
            )
            assert got == want
            assert got[4][0] is not None or got[3] is not None
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("\n")
        got = serial_outcome(iter_ras_chunks, path, policy, 5, PartialTail())
        want = serial_outcome(
            iter_ras_chunks_by_line, path, policy, 5, PartialTail()
        )
        assert got == want
        assert got[4] == (None, 0)


def test_cursor_state_crosses_batches_for_recids_below_the_max(tmp_path):
    """A duplicate of a row two batches back, with a smaller recid than
    the batch before it, is still a duplicate."""
    rows = _clean_rows(N_ROWS * 2)
    rows[-1][0] = rows[5][0]
    path = _write(tmp_path / "long.log", rows)
    policy = IngestPolicy(mode="quarantine")
    got = serial_outcome(iter_ras_chunks, path, policy)
    assert got == serial_outcome(iter_ras_chunks_by_line, path, policy)
    assert got[2][1] == {"duplicate_recid": 1}
    assert np.frombuffer(got[1]["recid"][1], dtype=np.int64).size == (
        2 * N_ROWS - 1
    )
